package rtree

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
)

// SplitEntries partitions entries into two groups using the R*-tree split
// algorithm: the split axis is chosen by minimum margin sum over all
// candidate distributions, the split index by minimum overlap area (ties by
// minimum total area). Each group receives at least minFill entries.
//
// It is exported because the paper reuses exactly this algorithm to build the
// binary partition trees of Section 4.2 ("the partitioning uses the R-tree
// node splitting algorithm to assure minimal overlap"), where minFill is 1.
func SplitEntries(entries []Entry, minFill int) (left, right []Entry) {
	sorted := append([]Entry(nil), entries...)
	k := NewSplitScratch(len(entries)).Split(sorted, minFill)
	// Fresh arrays for both halves: callers treat the groups as independent
	// entry storage for two nodes.
	left = sorted[:k:k]
	right = append([]Entry(nil), sorted[k:]...)
	return left, right
}

// SplitScratch holds the reusable buffers of the R*-tree split computation,
// letting a caller that splits many entry lists in a row (partition-tree
// construction, which recursively splits down to single entries) run the
// whole recursion without allocating.
type SplitScratch struct {
	orig   []Entry
	lo, hi []float64      // the axis being sorted: min and max per entry
	perm   [2][]int32     // entry positions in x (0) and y (1) order
	suffix [2][]geom.Rect // suffix[a][i]: MBR of the entries perm[a][i:]
}

// NewSplitScratch returns scratch sized for splitting up to n entries.
func NewSplitScratch(n int) *SplitScratch {
	keys, perm, suffix := make([]float64, 2*n), make([]int32, 2*n), make([]geom.Rect, 2*n)
	return &SplitScratch{
		orig:   make([]Entry, n),
		lo:     keys[:n],
		hi:     keys[n:],
		perm:   [2][]int32{perm[:n], perm[n:]},
		suffix: [2][]geom.Rect{suffix[:n], suffix[n:]},
	}
}

// Split reorders entries in place so that entries[:k] and entries[k:] are
// the two groups the R*-tree split algorithm chooses, and returns k. Each
// axis ordering is the stable sort of the input by (min, max) along the
// axis. Input already in that order is its own stable sort, and the halves a
// split returns are in the winning axis's order, so a recursive split sorts
// once, for the other axis. Sorting positions with ties broken by position
// gives the stable order without moving entries; only the winning order is
// applied to them.
func (s *SplitScratch) Split(entries []Entry, minFill int) int {
	n := len(entries)
	if n < 2 {
		panic("rtree: SplitEntries needs at least two entries")
	}
	if minFill < 1 {
		minFill = 1
	}
	if minFill > n/2 {
		minFill = n / 2
	}
	if len(s.orig) < n {
		*s = *NewSplitScratch(n)
	}
	orig := s.orig[:n]
	copy(orig, entries)

	// The split axis minimises the margin summed over all legal
	// distributions; x wins ties.
	var margin [2]float64
	lo, hi := s.lo[:n], s.hi[:n]
	order := func(i, j int32) int {
		if c := cmp.Compare(lo[i], lo[j]); c != 0 {
			return c
		}
		if c := cmp.Compare(hi[i], hi[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	}
	for a := range margin {
		for i := range orig {
			r := &orig[i].MBR
			if a == 0 {
				lo[i], hi[i] = r.MinX, r.MaxX
			} else {
				lo[i], hi[i] = r.MinY, r.MaxY
			}
		}
		perm := s.perm[a][:n]
		for i := range perm {
			perm[i] = int32(i)
		}
		if !slices.IsSortedFunc(perm, order) {
			slices.SortFunc(perm, order)
		}
		suffix := s.suffix[a][:n]
		suffix[n-1] = orig[perm[n-1]].MBR
		for i := n - 2; i >= 0; i-- {
			suffix[i] = suffix[i+1].Union(orig[perm[i]].MBR)
		}
		prefix := orig[perm[0]].MBR // MBR of the entries perm[:k]
		for k := 1; k <= n-minFill; k++ {
			if k >= minFill {
				margin[a] += prefix.Margin() + suffix[k].Margin()
			}
			prefix = prefix.Union(orig[perm[k]].MBR)
		}
	}
	axis := 0
	if margin[0] > margin[1] {
		axis = 1
	}
	for i, p := range s.perm[axis][:n] {
		entries[i] = orig[p]
	}
	suffix := s.suffix[axis]

	// Choose the split index on the winning axis ordering.
	bestK := minFill
	bestOverlap := math.Inf(1)
	bestArea := math.Inf(1)
	l := entries[0].MBR // MBR of entries[:k]
	for k := 1; k <= n-minFill; k++ {
		if k >= minFill {
			r := suffix[k]
			overlap := l.OverlapArea(r)
			area := l.Area() + r.Area()
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestK, bestOverlap, bestArea = k, overlap, area
			}
		}
		l = l.Union(entries[k].MBR)
	}
	return bestK
}
