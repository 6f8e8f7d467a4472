package cluster

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Elastic partition mutations. A Partition stays immutable — the router
// swaps whole partitions under its topology fence — so every mutation here
// is clone-on-write: the KD tree is tiny (one node per shard), and a fresh
// copy means in-flight requests keep routing against the partition they
// started with.
//
// Shard ordinals are slots: a merge retires the losing slot's leaf but never
// renumbers the survivors (virtual NodeIDs encode the ordinal, and clients
// hold those ids). A split always grows a fresh slot — a reused slot's new
// server would mint local node ids that alias a stale client's refs into
// the old server's subtrees — so a router's lifetime is bounded at
// MaxShards split operations (docs/ELASTIC.md).

// clone deep-copies the partition: KD nodes, regions, and liveness.
func (p *Partition) clone() *Partition {
	q := &Partition{
		n:       p.n,
		live:    append([]bool(nil), p.live...),
		Regions: append([]geom.Rect(nil), p.Regions...),
	}
	q.root = cloneKD(p.root)
	return q
}

func cloneKD(nd *kdNode) *kdNode {
	if nd == nil {
		return nil
	}
	c := *nd
	c.left = cloneKD(nd.left)
	c.right = cloneKD(nd.right)
	return &c
}

// Live reports whether slot s currently owns a leaf region.
func (p *Partition) Live(s int) bool {
	return s >= 0 && s < len(p.live) && p.live[s]
}

// LiveShards returns the ordinals of every live slot, ascending.
func (p *Partition) LiveShards() []int {
	out := make([]int, 0, p.n)
	for s, ok := range p.live {
		if ok {
			out = append(out, s)
		}
	}
	return out
}

// containsLeaf reports whether the subtree holds the leaf owned by s.
func containsLeaf(nd *kdNode, s int) bool {
	if nd == nil {
		return false
	}
	if nd.left == nil {
		return nd.shard == s
	}
	return containsLeaf(nd.left, s) || containsLeaf(nd.right, s)
}

// leafCell returns the unclipped plane cell of slot s's leaf: the
// intersection of its ancestors' half-planes, infinite where unbounded.
// Unlike the display Regions (clipped to the build MBR), the cell is what
// Locate actually routes by, so a split cut is validated against it.
func (p *Partition) leafCell(s int) geom.Rect {
	cell := geom.Rect{
		MinX: math.Inf(-1), MinY: math.Inf(-1),
		MaxX: math.Inf(1), MaxY: math.Inf(1),
	}
	nd := p.root
	for nd.left != nil {
		if containsLeaf(nd.left, s) {
			if nd.axis == 0 {
				cell.MaxX = math.Min(cell.MaxX, nd.cut)
			} else {
				cell.MaxY = math.Min(cell.MaxY, nd.cut)
			}
			nd = nd.left
		} else {
			if nd.axis == 0 {
				cell.MinX = math.Max(cell.MinX, nd.cut)
			} else {
				cell.MinY = math.Max(cell.MinY, nd.cut)
			}
			nd = nd.right
		}
	}
	return cell
}

// findLeaf walks to the leaf owned by s and returns it with its parent
// (parent nil for a single-leaf partition).
func findLeaf(nd, parent *kdNode, s int) (leaf, par *kdNode) {
	if nd == nil {
		return nil, nil
	}
	if nd.left == nil {
		if nd.shard == s {
			return nd, parent
		}
		return nil, nil
	}
	if leaf, par = findLeaf(nd.left, nd, s); leaf != nil {
		return leaf, par
	}
	return findLeaf(nd.right, nd, s)
}

// SiblingOf returns the slot sharing s's KD parent, when that sibling is
// itself a leaf — the only configuration two regions can merge back into
// one rectangle. ok is false for dead slots, the root leaf, and slots whose
// sibling subtree has been split further.
func (p *Partition) SiblingOf(s int) (int, bool) {
	if !p.Live(s) {
		return 0, false
	}
	leaf, parent := findLeaf(p.root, nil, s)
	if leaf == nil || parent == nil {
		return 0, false
	}
	sib := parent.left
	if sib == leaf {
		sib = parent.right
	}
	if sib.left != nil {
		return 0, false
	}
	return sib.shard, true
}

// SplitLeaf cuts slot s's leaf at cut on axis (0 = x, 1 = y) and assigns
// the >= cut side to the fresh slot p.n (the slot count grows by one),
// returning the mutated clone. The split keeps Locate's convention that
// points on the plane go right, so s keeps the < cut side.
func (p *Partition) SplitLeaf(s, axis int, cut float64) (*Partition, error) {
	if !p.Live(s) {
		return nil, fmt.Errorf("cluster: split: shard %d is not a live slot", s)
	}
	if p.n >= MaxShards {
		return nil, fmt.Errorf("cluster: split: slot count would exceed %d shards", MaxShards)
	}
	if axis != 0 && axis != 1 {
		return nil, fmt.Errorf("cluster: split: axis %d outside {0,1}", axis)
	}
	cell := p.leafCell(s)
	lo, hi := cell.MinX, cell.MaxX
	if axis == 1 {
		lo, hi = cell.MinY, cell.MaxY
	}
	if !(cut > lo && cut < hi) {
		return nil, fmt.Errorf("cluster: split: cut %g outside shard %d's cell (%g,%g) on axis %d", cut, s, lo, hi, axis)
	}
	q := p.clone()
	t := q.n
	q.n++
	q.live = append(q.live, true)
	q.Regions = append(q.Regions, geom.Rect{})
	leaf, _ := findLeaf(q.root, nil, s)
	// Display regions clamp the cut into the clipped rectangle; Locate
	// routes by the unclamped plane, so a cut beyond the build MBR just
	// leaves one display region degenerate.
	region := q.Regions[s]
	leftRegion, rightRegion := region, region
	if axis == 0 {
		c := math.Min(math.Max(cut, region.MinX), region.MaxX)
		leftRegion.MaxX, rightRegion.MinX = c, c
	} else {
		c := math.Min(math.Max(cut, region.MinY), region.MaxY)
		leftRegion.MaxY, rightRegion.MinY = c, c
	}
	leaf.axis, leaf.cut = axis, cut
	leaf.left = &kdNode{shard: s}
	leaf.right = &kdNode{shard: t}
	leaf.shard = 0
	q.Regions[s] = leftRegion
	q.Regions[t] = rightRegion
	return q, nil
}

// MergeLeaves collapses slot t's leaf into its KD sibling s: the parent cut
// disappears, s's leaf covers the union region, and slot t goes dead for
// good. s and t must be sibling leaves — SiblingOf(t) must report s.
func (p *Partition) MergeLeaves(s, t int) (*Partition, error) {
	if s == t {
		return nil, fmt.Errorf("cluster: merge: shard %d cannot merge with itself", s)
	}
	if sib, ok := p.SiblingOf(t); !ok || sib != s {
		return nil, fmt.Errorf("cluster: merge: shards %d and %d are not sibling leaves", s, t)
	}
	q := p.clone()
	leaf, parent := findLeaf(q.root, nil, t)
	// parent != nil: SiblingOf refused root leaves.
	survivor := parent.left
	if survivor == leaf {
		survivor = parent.right
	}
	parent.axis, parent.cut = survivor.axis, survivor.cut
	parent.left, parent.right = survivor.left, survivor.right
	parent.shard = survivor.shard
	q.live[t] = false
	q.Regions[s] = q.Regions[s].Union(q.Regions[t])
	q.Regions[t] = geom.Rect{}
	return q, nil
}
