package bpt_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bpt"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// The cut algebra of a partition tree lives where production runs it: a
// client cache merges each shipped cut of a node into the cut it holds.
// These tests drive that merge through core.Cache over the pages Build
// returns.

func randomPage(r *rand.Rand, n int) *rtree.Page {
	entries := make([]rtree.Entry, n)
	for i := range entries {
		c := geom.Pt(r.Float64(), r.Float64())
		entries[i] = rtree.Entry{
			MBR: geom.RectFromCenter(c, r.Float64()*0.05, r.Float64()*0.05),
			Obj: rtree.ObjectID(i + 1),
		}
	}
	return bpt.Build(1, entries)
}

// elem is the wire element a server ships at position i of pg.
func elem(pg *rtree.Page, i int32) wire.CutElem {
	e := wire.CutElem{Code: bpt.Code(pg.Code(i)), MBR: pg.Rect(i)}
	if pg.IsLeaf(i) {
		e.Obj = pg.ObjID(i)
	} else {
		e.Super = true
	}
	return e
}

// randomCut draws a random valid cut of pg in code order by stochastic
// descent from the root.
func randomCut(r *rand.Rand, pg *rtree.Page) []wire.CutElem {
	var cut []wire.CutElem
	var walk func(i int32)
	walk = func(i int32) {
		if pg.IsLeaf(i) || r.Intn(3) == 0 {
			cut = append(cut, elem(pg, i))
			return
		}
		walk(i + 1)
		walk(pg.Right(i))
	}
	walk(0)
	return cut
}

// expandCut replaces each element of cut by the positions d levels below
// it, or the leaves above that depth.
func expandCut(pg *rtree.Page, cut []wire.CutElem, d int) []wire.CutElem {
	var out []wire.CutElem
	var walk func(i int32, left int)
	walk = func(i int32, left int) {
		if left == 0 || pg.IsLeaf(i) {
			out = append(out, elem(pg, i))
			return
		}
		walk(i+1, left-1)
		walk(pg.Right(i), left-1)
	}
	for _, e := range cut {
		i, ok := pg.FindCode(string(e.Code))
		if !ok {
			panic("expandCut: code not in page")
		}
		walk(i, d)
	}
	return out
}

// cacheMerge returns the cut a fresh cache holds for the node after it
// receives a, then b.
func cacheMerge(t *testing.T, a, b []wire.CutElem) []bpt.Code {
	c := core.NewCache(1<<30, core.GRD3, wire.DefaultSizeModel())
	for _, cut := range [][]wire.CutElem{a, b} {
		c.InsertResponse(&wire.Response{Index: []wire.NodeRep{{ID: 1, Elems: slices.Clone(cut)}}})
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("cache invalid after the merge: %v", err)
	}
	it, ok := c.Node(1)
	if !ok {
		t.Fatal("merged node not cached")
	}
	codes := make([]bpt.Code, len(it.Elems))
	for i, e := range it.Elems {
		codes[i] = e.Code
	}
	return codes
}

// cutAt is the cut a server ships at the given positions of pg.
func cutAt(pg *rtree.Page, codes []bpt.Code) []wire.CutElem {
	cut := make([]wire.CutElem, len(codes))
	for k, code := range codes {
		i, ok := pg.FindCode(string(code))
		if !ok {
			panic("cutAt: code not in page")
		}
		cut[k] = elem(pg, i)
	}
	return cut
}

func codesOf(cut []wire.CutElem) []bpt.Code {
	codes := make([]bpt.Code, len(cut))
	for i, e := range cut {
		codes[i] = e.Code
	}
	return codes
}

// validCut reports whether codes are positions of pg that cover each of its
// leaves exactly once (which makes them an antichain).
func validCut(pg *rtree.Page, codes []bpt.Code) bool {
	for _, code := range codes {
		if _, ok := pg.FindCode(string(code)); !ok {
			return false
		}
	}
	for i := int32(0); i < int32(pg.Len()); i++ {
		if !pg.IsLeaf(i) {
			continue
		}
		leaf, n := bpt.Code(pg.Code(i)), 0
		for _, code := range codes {
			if code == leaf || code.IsStrictAncestorOf(leaf) {
				n++
			}
		}
		if n != 1 {
			return false
		}
	}
	return true
}

// refines reports whether every code lies at or below some element of cut.
func refines(codes []bpt.Code, cut []wire.CutElem) bool {
	for _, code := range codes {
		if !slices.ContainsFunc(cut, func(e wire.CutElem) bool { return e.Code == code || e.Code.IsStrictAncestorOf(code) }) {
			return false
		}
	}
	return true
}

// TestMergeCutsProperty: merging any two cuts of a node's partition tree
// yields a valid cut that refines both, and merging is idempotent and
// commutative.
func TestMergeCutsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 200; trial++ {
		pg := randomPage(r, 2+r.Intn(40))
		a, b := randomCut(r, pg), randomCut(r, pg)
		m := cacheMerge(t, a, b)
		if !validCut(pg, m) {
			t.Fatalf("trial %d: merged cut %v invalid (a=%v b=%v)", trial, m, codesOf(a), codesOf(b))
		}
		if !refines(m, a) || !refines(m, b) {
			t.Fatalf("trial %d: merged cut %v refines not both of a=%v b=%v", trial, m, codesOf(a), codesOf(b))
		}
		if again := cacheMerge(t, cutAt(pg, m), a); !slices.Equal(again, m) {
			t.Fatalf("trial %d: merging a again gives %v, want %v", trial, again, m)
		}
		if swapped := cacheMerge(t, b, a); !slices.Equal(swapped, m) {
			t.Fatalf("trial %d: merge(b, a) = %v, merge(a, b) = %v", trial, swapped, m)
		}
	}
}

// TestQuickCutAlgebra: for random pages and cut pairs, the merge is a valid
// common refinement, expanding it any number of levels gives a valid cut,
// and merging a cut with its own expansion, in either order, gives the
// expansion: knowledge only gets finer.
func TestQuickCutAlgebra(t *testing.T) {
	f := func(seed int64, nRaw uint8, d uint8) bool {
		r := rand.New(rand.NewSource(seed))
		pg := randomPage(r, 2+int(nRaw)%40)
		a, b := randomCut(r, pg), randomCut(r, pg)
		m := cacheMerge(t, a, b)
		if !validCut(pg, m) || !refines(m, a) || !refines(m, b) {
			return false
		}
		mCut := cutAt(pg, m)
		expanded := expandCut(pg, mCut, int(d)%4)
		want := codesOf(expanded)
		return validCut(pg, want) &&
			slices.Equal(cacheMerge(t, mCut, expanded), want) &&
			slices.Equal(cacheMerge(t, expanded, mCut), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
