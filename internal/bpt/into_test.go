package bpt

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// TestCutsComeOutSorted pins the contract every consumer of a Cut relies on
// (Contains' binary search, MergeCuts' look-ahead, the wire's element order):
// FullCut and Frontier emit their left-to-right depth-first walk as is, and
// that is already the normalized (sorted, deduplicated) order; ExpandCut
// accepts its cut in any order and sorts.
func TestCutsComeOutSorted(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(40)
		entries := make([]rtree.Entry, n)
		for i := range entries {
			c := geom.Pt(r.Float64(), r.Float64())
			entries[i] = rtree.Entry{MBR: geom.RectFromCenter(c, 0.01, 0.01), Obj: rtree.ObjectID(i + 1)}
		}
		pt := Build(1, entries)

		full := pt.FullCut()
		if want := slices.Clone(full).normalize(); !reflect.DeepEqual(full, want) {
			t.Fatalf("trial %d: FullCut %v is not normalized (%v)", trial, full, want)
		}

		// Random upward-closed expansion set, the shape the server builds.
		expanded := map[Code]bool{}
		var descend func(p *PNode)
		descend = func(p *PNode) {
			if p.Leaf() || r.Intn(3) == 0 {
				return
			}
			expanded[p.Code] = true
			descend(p.Left)
			descend(p.Right)
		}
		descend(pt.Root)

		frontier := pt.Frontier(expanded)
		if want := slices.Clone(frontier).normalize(); !reflect.DeepEqual(frontier, want) {
			t.Fatalf("trial %d: Frontier %v is not normalized (expanded %v)", trial, frontier, expanded)
		}
		shuffled := slices.Clone(frontier)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for d := 0; d <= 3; d++ {
			refined := pt.ExpandCut(frontier, d)
			if err := pt.ValidateCut(refined); err != nil {
				t.Fatalf("trial %d d=%d: %v", trial, d, err)
			}
			if d == 0 {
				continue // d = 0 hands the cut back in the order given
			}
			if want := slices.Clone(refined).normalize(); !reflect.DeepEqual(refined, want) {
				t.Fatalf("trial %d d=%d: ExpandCut %v is not normalized", trial, d, refined)
			}
			if got := pt.ExpandCut(shuffled, d); !reflect.DeepEqual(got, refined) {
				t.Fatalf("trial %d d=%d: ExpandCut of a shuffled cut %v != %v", trial, d, got, refined)
			}
		}
	}
}
