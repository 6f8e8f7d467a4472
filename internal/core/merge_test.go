package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bpt"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// mergePage builds the partition tree of a random node of n entries.
func mergePage(r *rand.Rand, n int) *rtree.Page {
	entries := make([]rtree.Entry, n)
	for i := range entries {
		entries[i] = rtree.Entry{MBR: geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01), Obj: rtree.ObjectID(i + 1)}
	}
	return bpt.Build(1, entries)
}

// randomPageCut draws a random valid cut of pg in code order by stochastic
// descent from the root; Obj marks each element with side.
func randomPageCut(r *rand.Rand, pg *rtree.Page, side rtree.ObjectID) []wire.CutElem {
	var elems []wire.CutElem
	var walk func(i int32)
	walk = func(i int32) {
		if pg.IsLeaf(i) || r.Intn(3) == 0 {
			elems = append(elems, wire.CutElem{Code: bpt.Code(pg.Code(i)), Obj: side})
			return
		}
		walk(i + 1)
		walk(pg.Right(i))
	}
	walk(0)
	return elems
}

// levelCut is the cut of pg's positions d levels below the root, or leaves
// above that depth, in code order.
func levelCut(pg *rtree.Page, d int) []wire.CutElem {
	var elems []wire.CutElem
	for i := int32(0); i < int32(pg.Len()); i++ {
		if code := pg.Code(i); len(code) == d || (len(code) < d && pg.IsLeaf(i)) {
			elems = append(elems, wire.CutElem{Code: bpt.Code(code)})
		}
	}
	return elems
}

func cutCodes(elems []wire.CutElem) []bpt.Code {
	codes := make([]bpt.Code, len(elems))
	for i, e := range elems {
		codes[i] = e.Code
	}
	return codes
}

// mergeReference is the finest common refinement of two cuts by its
// definition: of their union, in code order without duplicates, the
// positions with no strict descendant in it.
func mergeReference(a, b []bpt.Code) []bpt.Code {
	u := slices.Concat(a, b)
	slices.Sort(u)
	u = slices.Compact(u)
	var out []bpt.Code
	for _, code := range u {
		if !slices.ContainsFunc(u, code.IsStrictAncestorOf) {
			out = append(out, code)
		}
	}
	return out
}

// TestMergeCutsMatchesBPT holds the cache's merge of cut elements to the
// finest common refinement of the two cuts' codes: the same positions
// survive, and at a position both cuts hold the shipped element replaces
// the cached one.
func TestMergeCutsMatchesBPT(t *testing.T) {
	r := rand.New(rand.NewSource(1703))
	for trial := 0; trial < 300; trial++ {
		pg := mergePage(r, 2+r.Intn(40))
		cached, shipped := randomPageCut(r, pg, 1), randomPageCut(r, pg, 2)
		if trial%5 == 0 {
			cached = nil // a node's first representation
		}
		shippedCut := cutCodes(shipped)
		want := mergeReference(cutCodes(cached), shippedCut)
		got := mergeCuts(nil, cached, shipped)
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d positions, want %d", trial, len(got), len(want))
		}
		for i, e := range got {
			fromShipped := slices.Contains(shippedCut, e.Code)
			if e.Code != want[i] || (e.Obj == 2) != fromShipped {
				t.Fatalf("trial %d: position %d is %q from side %d, want %q (shipped holds it: %v)", trial, i, e.Code, e.Obj, want[i], fromShipped)
			}
		}
	}
}

// BenchmarkMergeCuts is the cache's merge of a node's cached cut three
// levels deep with a shipped one five levels deep, into a reused buffer as
// Cache.insertNodeRep runs it.
func BenchmarkMergeCuts(b *testing.B) {
	pg := mergePage(rand.New(rand.NewSource(5)), 128)
	cached, shipped := levelCut(pg, 3), levelCut(pg, 5)
	var dst []wire.CutElem
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = mergeCuts(dst[:0], cached, shipped)
	}
}
