package rtree

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// referenceSplit is the three-sort R*-tree split Split replaced: each axis
// stably sorts the original entry order, and the winning axis is sorted once
// more. Split must choose the same k and leave the same permutation.
func referenceSplit(entries []Entry, minFill int) int {
	n := len(entries)
	if minFill < 1 {
		minFill = 1
	}
	if minFill > n/2 {
		minFill = n / 2
	}
	orig := slices.Clone(entries)
	prefix, suffix := make([]geom.Rect, n), make([]geom.Rect, n)
	evalAxis := func(byX bool) float64 {
		copy(entries, orig)
		if byX {
			slices.SortStableFunc(entries, cmpX)
		} else {
			slices.SortStableFunc(entries, cmpY)
		}
		prefix[0] = entries[0].MBR
		for i := 1; i < n; i++ {
			prefix[i] = prefix[i-1].Union(entries[i].MBR)
		}
		suffix[n-1] = entries[n-1].MBR
		for i := n - 2; i >= 0; i-- {
			suffix[i] = suffix[i+1].Union(entries[i].MBR)
		}
		var marginSum float64
		for k := minFill; k <= n-minFill; k++ {
			marginSum += prefix[k-1].Margin() + suffix[k].Margin()
		}
		return marginSum
	}
	mx := evalAxis(true)
	my := evalAxis(false)
	if mx <= my {
		evalAxis(true)
	}
	bestK := minFill
	bestOverlap := math.Inf(1)
	bestArea := math.Inf(1)
	for k := minFill; k <= n-minFill; k++ {
		l, r := prefix[k-1], suffix[k]
		overlap := l.OverlapArea(r)
		area := l.Area() + r.Area()
		if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = k, overlap, area
		}
	}
	return bestK
}

// cmpX and cmpY order entries by (min, max) along one axis.
func cmpX(a, b Entry) int {
	if c := cmp.Compare(a.MBR.MinX, b.MBR.MinX); c != 0 {
		return c
	}
	return cmp.Compare(a.MBR.MaxX, b.MBR.MaxX)
}

func cmpY(a, b Entry) int {
	if c := cmp.Compare(a.MBR.MinY, b.MBR.MinY); c != 0 {
		return c
	}
	return cmp.Compare(a.MBR.MaxY, b.MBR.MaxY)
}

// splitCase draws one entry list: coordinates float32-quantised or snapped to
// a coarse grid (so minima and maxima tie), rectangles that are points, zero
// width or zero height, MBRs duplicated under another object id, and inputs
// already sorted on either axis, as a recursive split hands its halves on.
func splitCase(rng *rand.Rand) []Entry {
	n := 2 + rng.Intn(1+rng.Intn(299)) // most lists short, as in a recursion
	grid := rng.Intn(2) == 0
	coord := func() float64 {
		if grid {
			return float64(rng.Intn(16)) / 16
		}
		return float64(float32(rng.Float64()))
	}
	entries := make([]Entry, n)
	for i := range entries {
		var r geom.Rect
		if i > 0 && rng.Intn(5) == 0 {
			r = entries[rng.Intn(i)].MBR
		} else {
			x, y := coord(), coord()
			r = geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}
			switch rng.Intn(4) {
			case 1: // zero width
				r.MaxY += coord() / 8
			case 2: // zero height
				r.MaxX += coord() / 8
			case 3:
				r.MaxX += coord() / 8
				r.MaxY += coord() / 8
			}
		}
		entries[i] = Entry{MBR: r, Obj: ObjectID(i + 1)}
	}
	switch rng.Intn(4) {
	case 1:
		slices.SortStableFunc(entries, cmpX)
	case 2:
		slices.SortStableFunc(entries, cmpY)
	}
	return entries
}

// TestSplitMatchesReference pins Split to the three-sort split it replaced:
// bpt.Build and the page builder both call it, so a differential between
// those two cannot see a change in it.
func TestSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	scratch := NewSplitScratch(0) // grows, and is reused across sizes
	var splits int
	// check splits one list both ways and, when recurse is set, both halves
	// in turn down to single entries, the way a partition tree is built.
	var check func(c int, in []Entry, minFill int, recurse bool)
	check = func(c int, in []Entry, minFill int, recurse bool) {
		want := slices.Clone(in)
		wantK := referenceSplit(want, minFill)
		k := scratch.Split(in, minFill)
		splits++
		if k != wantK || !slices.Equal(in, want) {
			t.Fatalf("case %d: %d entries, minFill %d: k=%d, want %d; same permutation: %v",
				c, len(in), minFill, k, wantK, slices.Equal(in, want))
		}
		if recurse {
			for _, half := range [][]Entry{in[:k], in[k:]} {
				if len(half) > 1 {
					check(c, half, minFill, true)
				}
			}
		}
	}
	for c := 0; c < 50_000; c++ {
		check(c, splitCase(rng), 1+rng.Intn(3), c%500 == 0)
	}
	t.Logf("%d splits compared", splits)
}
