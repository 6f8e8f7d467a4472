// Package cluster is the spatial sharding layer: it splits one dataset into
// N spatially partitioned shards — each an ordinary single-node server — and
// serves the whole wire protocol over them through a scatter-gather Router,
// so proactive-caching clients talk to a cluster exactly as they talk to one
// server (docs/CLUSTER.md).
//
// The design follows the space-partitioned shard + thin router architecture
// of scalable dynamic spatial database systems: shard ownership is a
// recursive KD split of the data space balanced by object count, queries
// scatter to the shards that can contribute (range: overlap test; kNN:
// best-first with per-shard distance bounds and re-issue on under-fetch;
// join: broadcast plus boundary-band cross-shard merge), and the merge layer
// re-keys shard-local node ids and epochs into a virtual namespace so the
// paper's cache-cut and epoch-invalidation protocols work unchanged.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// Partition is a recursive KD split of the plane into shard regions. It is
// immutable after construction: Locate answers which shard owns a point, and
// ownership of an object is ownership of its rectangle's center. Updates
// that move an object across a region boundary re-partition it (the router
// turns the move into a delete on the old owner plus an insert on the new
// one), so the ownership invariant — every object lives on the shard owning
// its current center — holds for the cluster's whole lifetime.
type Partition struct {
	n    int
	root *kdNode

	// live marks which shard slots currently own a leaf. A build-time
	// partition is fully live; elastic merges retire slots (the KD leaf
	// disappears but the ordinal is never renumbered, because virtual
	// NodeIDs encode it) and elastic splits append fresh ones
	// (partition_elastic.go).
	live []bool

	// Regions are the shard regions clipped to the build dataset's bounding
	// rectangle, for display and testing. Locate is the authority: the cut
	// planes partition the whole plane, so objects inserted outside the
	// build MBR still have exactly one owner.
	Regions []geom.Rect
}

// kdNode is one split: points with coordinate < cut on axis go left.
type kdNode struct {
	axis  int // 0 = x, 1 = y
	cut   float64
	left  *kdNode
	right *kdNode
	shard int // leaf: owning shard ordinal (left/right nil)
}

// MakePartition builds an n-way KD partition balanced by object count: each
// split divides the region's objects proportionally to the number of shards
// on either side, cutting the longer axis of the objects' bounding box at
// the weighted median of their centers. n must be at least 1; a partition
// over no objects splits the unit square instead.
func MakePartition(objects []dataset.Object, n int) (*Partition, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: partition needs at least 1 shard, got %d", n)
	}
	if n > MaxShards {
		return nil, fmt.Errorf("cluster: partition of %d shards exceeds the %d-shard limit", n, MaxShards)
	}
	centers := make([]geom.Point, len(objects))
	bounds := geom.R(0, 0, 1, 1)
	for i, o := range objects {
		centers[i] = o.MBR.Center()
		if i == 0 {
			bounds = o.MBR
		} else {
			bounds = bounds.Union(o.MBR)
		}
	}
	p := &Partition{n: n, live: make([]bool, n), Regions: make([]geom.Rect, n)}
	for s := range p.live {
		p.live[s] = true
	}
	next := 0
	p.root = p.build(centers, bounds, n, &next)
	return p, nil
}

// build recursively splits centers into n shards, assigning leaf ordinals in
// order. region is the running display rectangle for Regions.
func (p *Partition) build(centers []geom.Point, region geom.Rect, n int, next *int) *kdNode {
	if n == 1 {
		shard := *next
		*next++
		p.Regions[shard] = region
		return &kdNode{left: nil, right: nil, shard: shard}
	}
	nLeft := n / 2

	// Split the longer axis of the current region so shards stay chunky.
	axis := 0
	if region.Height() > region.Width() {
		axis = 1
	}
	coord := func(pt geom.Point) float64 {
		if axis == 0 {
			return pt.X
		}
		return pt.Y
	}
	sort.Slice(centers, func(i, j int) bool { return coord(centers[i]) < coord(centers[j]) })

	// The cut index divides objects proportionally to the shard counts on
	// either side, so leaf shards end up with near-equal object counts even
	// when n is not a power of two.
	cutIdx := len(centers) * nLeft / n
	var cut float64
	switch {
	case len(centers) == 0:
		// No data to balance: bisect the region.
		if axis == 0 {
			cut = (region.MinX + region.MaxX) / 2
		} else {
			cut = (region.MinY + region.MaxY) / 2
		}
	case cutIdx >= len(centers):
		cut = coord(centers[len(centers)-1])
	default:
		cut = coord(centers[cutIdx])
	}

	leftRegion, rightRegion := region, region
	if axis == 0 {
		leftRegion.MaxX, rightRegion.MinX = cut, cut
	} else {
		leftRegion.MaxY, rightRegion.MinY = cut, cut
	}
	node := &kdNode{axis: axis, cut: cut}
	node.left = p.build(centers[:cutIdx], leftRegion, nLeft, next)
	node.right = p.build(centers[cutIdx:], rightRegion, n-nLeft, next)
	return node
}

// Shards returns the number of shard regions.
func (p *Partition) Shards() int { return p.n }

// Locate returns the ordinal of the shard owning a point. Points exactly on
// a cut plane belong to the right side (centers sort before their cut).
func (p *Partition) Locate(pt geom.Point) int {
	nd := p.root
	for nd.left != nil {
		c := pt.X
		if nd.axis == 1 {
			c = pt.Y
		}
		if c < nd.cut {
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	return nd.shard
}

// LocateRect returns the shard owning a rectangle: the owner of its center.
func (p *Partition) LocateRect(r geom.Rect) int {
	return p.Locate(r.Center())
}

// Split partitions objects into per-shard slices by ownership.
func (p *Partition) Split(objects []dataset.Object) [][]dataset.Object {
	out := make([][]dataset.Object, p.n)
	for _, o := range objects {
		s := p.LocateRect(o.MBR)
		out[s] = append(out[s], o)
	}
	return out
}
