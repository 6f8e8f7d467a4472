package bpt

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

func randEntries(r *rand.Rand, n int) []rtree.Entry {
	entries := make([]rtree.Entry, n)
	for i := range entries {
		c := geom.Pt(r.Float64(), r.Float64())
		entries[i] = rtree.Entry{
			MBR: geom.RectFromCenter(c, r.Float64()*0.05, r.Float64()*0.05),
			Obj: rtree.ObjectID(i + 1),
		}
	}
	return entries
}

func TestCodeOps(t *testing.T) {
	root := Code("")
	if !root.IsStrictAncestorOf("01") || root.IsStrictAncestorOf(root) {
		t.Error("ancestor of root broken")
	}
	if Code("0").IsStrictAncestorOf("1") || !Code("0").IsStrictAncestorOf("00") {
		t.Error("ancestor relation broken")
	}
	if Code("01").IsStrictAncestorOf("0") || Code("01").IsStrictAncestorOf("01") {
		t.Error("a position is its descendant's ancestor, not its own")
	}
}

// leafCount returns the number of leaf positions beneath position i of pg.
func leafCount(pg *rtree.Page, i int32) int {
	if pg.IsLeaf(i) {
		return 1
	}
	return leafCount(pg, i+1) + leafCount(pg, pg.Right(i))
}

// TestBuildStructure: the page Build returns has 2N-1 positions for N
// entries, one leaf per entry, children coded parent+"0" and parent+"1",
// and every internal MBR the union of its children's.
func TestBuildStructure(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 3, 5, 17, 64} {
		entries := randEntries(r, n)
		pg := Build(1, entries)
		if pg.Len() != 2*n-1 || leafCount(pg, 0) != n {
			t.Fatalf("n=%d: %d positions, %d leaves", n, pg.Len(), leafCount(pg, 0))
		}
		seen := map[rtree.ObjectID]bool{}
		for i := int32(0); i < int32(pg.Len()); i++ {
			if pg.IsLeaf(i) {
				if seen[pg.ObjID(i)] {
					t.Fatalf("n=%d: duplicate object %d", n, pg.ObjID(i))
				}
				seen[pg.ObjID(i)] = true
				continue
			}
			l, rt := i+1, pg.Right(i)
			if pg.Code(l) != pg.Code(i)+"0" || pg.Code(rt) != pg.Code(i)+"1" || pg.Parent(l) != i || pg.Parent(rt) != i {
				t.Fatalf("n=%d: position %d (%q) has children %q, %q", n, i, pg.Code(i), pg.Code(l), pg.Code(rt))
			}
			if pg.Rect(i) != pg.Rect(l).Union(pg.Rect(rt)) {
				t.Fatalf("n=%d: MBR %v is not the union of its children", n, pg.Rect(i))
			}
		}
		if len(seen) != n {
			t.Fatalf("n=%d: %d distinct leaves", n, len(seen))
		}
	}
}

// TestCutsComeOutSorted pins the order contract every consumer of a cut
// relies on (the cache's merge, the wire's element order, the virtual
// root's full cut): the page's preorder is strictly increasing code order,
// so a cut emitted by a left-to-right walk, the full cut of the leaves
// included, needs no sorting; and FindCode inverts Code.
func TestCutsComeOutSorted(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		pg := Build(1, randEntries(r, 2+r.Intn(40)))
		for i := int32(0); i < int32(pg.Len()); i++ {
			if i > 0 && pg.Code(i-1) >= pg.Code(i) {
				t.Fatalf("trial %d: position %d code %q follows %q", trial, i, pg.Code(i), pg.Code(i-1))
			}
			if at, ok := pg.FindCode(pg.Code(i)); !ok || at != i {
				t.Fatalf("trial %d: FindCode(%q) = %d, %v, want %d", trial, pg.Code(i), at, ok, i)
			}
		}
	}
}

// Paper example, Figure 5: expanding the root's compact form by one level
// approximately doubles the granularity.
func TestPaperFigure5Shape(t *testing.T) {
	// Five entries roughly placed like r1..r5 in Figure 5(a).
	entries := []rtree.Entry{
		{MBR: geom.R(0.05, 0.60, 0.20, 0.90), Obj: 1}, // r1
		{MBR: geom.R(0.15, 0.35, 0.30, 0.55), Obj: 2}, // r2
		{MBR: geom.R(0.55, 0.65, 0.75, 0.85), Obj: 3}, // r3
		{MBR: geom.R(0.60, 0.35, 0.80, 0.55), Obj: 4}, // r4
		{MBR: geom.R(0.80, 0.05, 0.95, 0.25), Obj: 5}, // r5
	}
	pg := Build(7, entries)
	if pg.Len() != 9 || leafCount(pg, 0) != 5 {
		t.Fatalf("%d positions, %d leaves; want 9 (= 2*5-1) and 5", pg.Len(), leafCount(pg, 0))
	}
	// The normal form {(n,0),(n,1)} expanded one level: the positions two
	// levels down, and leaves above them.
	oneUp := 0
	for i := int32(0); i < int32(pg.Len()); i++ {
		if d := len(pg.Code(i)); d == 2 || (d < 2 && pg.IsLeaf(i)) {
			oneUp++
		}
	}
	if oneUp < 3 || oneUp > 5 {
		t.Errorf("1+-level form has %d elements, want ~4", oneUp)
	}
}

// TestSpaceBound pins the paper's §4.2 space bound — the partition trees take
// "no more than two times the R-tree index": the page of a node of E entries
// holds exactly 2E-1 positions, Build's page and the one the shard's packed
// table serves agree, and the table has one page per node.
func TestSpaceBound(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	items := make([]rtree.Item, 300)
	for i := range items {
		items[i] = rtree.Item{
			Obj: rtree.ObjectID(i + 1),
			MBR: geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01),
		}
	}
	tr := rtree.BulkLoad(rtree.Params{MaxEntries: 16}, items, 0.7)
	pk := rtree.Pack(tr)
	totalEntries, totalPositions := 0, 0
	tr.Nodes(func(n *rtree.Node) bool {
		pg := Build(n.ID, n.Entries)
		if pg.Len() != 2*len(n.Entries)-1 || pk.Page(n).Len() != pg.Len() {
			t.Fatalf("node %d: %d entries, %d positions, %d in the packed table",
				n.ID, len(n.Entries), pg.Len(), pk.Page(n).Len())
		}
		totalEntries += len(n.Entries)
		totalPositions += pg.Len()
		return true
	})
	if totalPositions > 2*totalEntries {
		t.Errorf("positions %d exceed 2x entries %d", totalPositions, totalEntries)
	}
	if pk.NodeCount() != tr.NodeCount() {
		t.Errorf("packed table: %d pages, want %d", pk.NodeCount(), tr.NodeCount())
	}
}
