package bpt

import (
	"math/rand"
	"testing"
	"testing/quick"

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
	l, r := root.Child(false), root.Child(true)
	if l != "0" || r != "1" {
		t.Fatalf("children = %q, %q", l, r)
	}
	if l.Parent() != root || root.Parent() != root {
		t.Error("parent broken")
	}
	if !root.IsStrictAncestorOf("01") || root.IsStrictAncestorOf(root) {
		t.Error("ancestor of root broken")
	}
	if Code("0").IsStrictAncestorOf("1") || !Code("0").IsStrictAncestorOf("00") {
		t.Error("ancestor relation broken")
	}
}

func TestBuildStructure(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 3, 5, 17, 64} {
		entries := randEntries(r, n)
		pt := Build(1, entries)
		if pt.Root.Count != n {
			t.Fatalf("n=%d: root count %d", n, pt.Root.Count)
		}
		// 2N-1 positions for N entries.
		if pt.Size() != 2*n-1 {
			t.Fatalf("n=%d: size %d, want %d", n, pt.Size(), 2*n-1)
		}
		// Every leaf carries a distinct object; MBRs nest upward.
		seen := map[rtree.ObjectID]bool{}
		var walk func(p *PNode)
		walk = func(p *PNode) {
			if p.Leaf() {
				if seen[p.Entry.Obj] {
					t.Fatalf("duplicate object %d", p.Entry.Obj)
				}
				seen[p.Entry.Obj] = true
				return
			}
			if !p.MBR.Contains(p.Left.MBR) || !p.MBR.Contains(p.Right.MBR) {
				t.Fatalf("MBR %v does not contain children", p.MBR)
			}
			if p.Count != p.Left.Count+p.Right.Count {
				t.Fatalf("count mismatch at %q", p.Code)
			}
			walk(p.Left)
			walk(p.Right)
		}
		walk(pt.Root)
		if len(seen) != n {
			t.Fatalf("n=%d: %d distinct leaves", n, len(seen))
		}
	}
}

func TestFullAndRootCutsValid(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	pt := Build(1, randEntries(r, 23))
	if err := pt.ValidateCut(pt.FullCut()); err != nil {
		t.Errorf("full cut invalid: %v", err)
	}
	if err := pt.ValidateCut(pt.RootCut()); err != nil {
		t.Errorf("root cut invalid: %v", err)
	}
	if len(pt.FullCut()) != 23 {
		t.Errorf("full cut size %d", len(pt.FullCut()))
	}
}

// randomCut draws a random valid cut by stochastic descent from the root.
func randomCut(r *rand.Rand, pt *Tree) Cut {
	var cut Cut
	var walk func(p *PNode)
	walk = func(p *PNode) {
		if p.Leaf() || r.Intn(3) == 0 {
			cut = append(cut, p.Code)
			return
		}
		walk(p.Left)
		walk(p.Right)
	}
	walk(pt.Root)
	return cut.normalize()
}

func TestMergeCutsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 200; trial++ {
		pt := Build(1, randEntries(r, 2+r.Intn(40)))
		a, b := randomCut(r, pt), randomCut(r, pt)
		m := MergeCuts(a, b)
		if err := pt.ValidateCut(m); err != nil {
			t.Fatalf("merged cut invalid: %v (a=%v b=%v m=%v)", err, a, b, m)
		}
		// Refinement: every element of m is a descendant-or-equal of some
		// element in each input cut.
		for _, code := range m {
			if !coveredBy(code, a) || !coveredBy(code, b) {
				t.Fatalf("merge not a refinement: %q vs a=%v b=%v", code, a, b)
			}
		}
		// Idempotent and commutative.
		if !equalCuts(MergeCuts(m, a), m) || !equalCuts(MergeCuts(b, a), m) {
			t.Fatal("merge not idempotent/commutative")
		}
	}
}

func coveredBy(code Code, cut Cut) bool {
	for _, c := range cut {
		if c == code || c.IsStrictAncestorOf(code) {
			return true
		}
	}
	return false
}

func equalCuts(a, b Cut) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestExpandCut(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	pt := Build(1, randEntries(r, 32))

	// 0-level expansion is the identity.
	root := pt.RootCut()
	if !equalCuts(pt.ExpandCut(root, 0), root) {
		t.Error("0-level expansion changed cut")
	}
	// 1-level expansion of the root yields its two children.
	one := pt.ExpandCut(root, 1)
	if len(one) != 2 {
		t.Fatalf("1-level expansion = %v", one)
	}
	if err := pt.ValidateCut(one); err != nil {
		t.Errorf("1-level cut invalid: %v", err)
	}
	// Deep expansion reaches the full form.
	deep := pt.ExpandCut(root, pt.Height+1)
	if !equalCuts(deep, pt.FullCut()) {
		t.Errorf("deep expansion != full cut")
	}
	// Every intermediate d stays valid and monotonically refines.
	prev := root
	for d := 1; d <= pt.Height; d++ {
		cur := pt.ExpandCut(root, d)
		if err := pt.ValidateCut(cur); err != nil {
			t.Fatalf("d=%d invalid: %v", d, err)
		}
		for _, code := range cur {
			if !coveredBy(code, prev) {
				t.Fatalf("d=%d not a refinement of d=%d", d, d-1)
			}
		}
		prev = cur
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
	pt := Build(7, entries)
	if pt.Size() != 9 {
		t.Fatalf("size %d, want 9 (= 2*5-1)", pt.Size())
	}
	full := pt.FullCut()
	if len(full) != 5 {
		t.Fatalf("full cut %v", full)
	}
	// The normal form {(n,0),(n,1)} expanded one level gives ~4 elements.
	oneUp := pt.ExpandCut(Cut{"0", "1"}, 1)
	if err := pt.ValidateCut(oneUp); err != nil {
		t.Fatalf("1+ cut invalid: %v", err)
	}
	if len(oneUp) < 3 || len(oneUp) > 5 {
		t.Errorf("1+-level form has %d elements, want ~4", len(oneUp))
	}
}

func TestFrontier(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	pt := Build(1, randEntries(r, 16))

	// Nothing expanded -> root cut.
	if !equalCuts(pt.Frontier(nil), pt.RootCut()) {
		t.Error("empty frontier should be root cut")
	}
	// Only root expanded -> its two children.
	f := pt.Frontier(map[Code]bool{"": true})
	if len(f) != 2 || f[0] != "0" || f[1] != "1" {
		t.Errorf("root-only frontier = %v", f)
	}
	if err := pt.ValidateCut(f); err != nil {
		t.Errorf("frontier invalid: %v", err)
	}
	// Random downward-closed expansion sets always yield valid cuts.
	for trial := 0; trial < 100; trial++ {
		expanded := map[Code]bool{}
		var walk func(p *PNode)
		walk = func(p *PNode) {
			if p.Leaf() || r.Intn(2) == 0 {
				return
			}
			expanded[p.Code] = true
			walk(p.Left)
			walk(p.Right)
		}
		walk(pt.Root)
		f := pt.Frontier(expanded)
		if err := pt.ValidateCut(f); err != nil {
			t.Fatalf("frontier invalid: %v (expanded=%v)", err, expanded)
		}
		// No frontier element may be expanded-internal.
		for _, code := range f {
			p, _ := pt.Node(code)
			if !p.Leaf() && expanded[code] {
				t.Fatalf("expanded internal %q in frontier", code)
			}
		}
	}
}

func TestValidateCutRejects(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	pt := Build(1, randEntries(r, 8))
	if err := pt.ValidateCut(Cut{"0"}); err == nil {
		t.Error("partial cut accepted")
	}
	if err := pt.ValidateCut(Cut{"", "0"}); err == nil {
		t.Error("related elements accepted")
	}
	if err := pt.ValidateCut(Cut{"0101010101"}); err == nil {
		t.Error("nonexistent code accepted")
	}
}

// Property (testing/quick): merging any two random cuts of any random tree
// yields a valid cut that refines both inputs; expansion of the merge stays
// valid at every level.
func TestQuickCutAlgebra(t *testing.T) {
	f := func(seed int64, nRaw uint8, d uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%40
		pt := Build(1, randEntries(r, n))
		a, b := randomCut(r, pt), randomCut(r, pt)
		m := MergeCuts(a, b)
		if pt.ValidateCut(m) != nil {
			return false
		}
		for _, code := range m {
			if !coveredBy(code, a) || !coveredBy(code, b) {
				return false
			}
		}
		expanded := pt.ExpandCut(m, int(d)%4)
		return pt.ValidateCut(expanded) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): PartialFrontier of any downward-closed expansion
// subset is an antichain whose elements exist, and closing the set upward
// turns it into a full cover.
func TestQuickPartialFrontier(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%40
		pt := Build(1, randEntries(r, n))
		// Random expansion region: pick a random internal position and
		// expand a random downward-closed subset beneath it.
		expanded := map[Code]bool{}
		var walk func(p *PNode, on bool)
		walk = func(p *PNode, on bool) {
			if p.Leaf() {
				return
			}
			if on {
				expanded[p.Code] = true
			}
			walk(p.Left, on && r.Intn(2) == 0)
			walk(p.Right, on && r.Intn(2) == 0)
		}
		walk(pt.Root, true)
		delete(expanded, "") // may leave a partial region set
		partial := pt.PartialFrontier(expanded)
		for i, c := range partial {
			if _, ok := pt.Node(c); !ok {
				return false
			}
			for j := i + 1; j < len(partial); j++ {
				if c.IsStrictAncestorOf(partial[j]) || partial[j].IsStrictAncestorOf(c) {
					return false
				}
			}
		}
		// Upward closure must produce a full cover.
		closed := map[Code]bool{}
		for c := range expanded {
			closed[c] = true
			for p := c; len(p) > 0; {
				p = p.Parent()
				closed[p] = true
			}
		}
		if len(closed) == 0 {
			return true
		}
		return pt.ValidateCut(pt.Frontier(closed)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSpaceBound pins the paper's §4.2 space bound — the partition trees take
// "no more than two times the R-tree index" — on both forms the codebase
// keeps: the reference Tree and the packed page the shard serves from hold
// exactly 2E-1 positions for a node of E entries.
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
	totalEntries, totalPositions := 0, 0
	tr.Nodes(func(n *rtree.Node) bool {
		pt := Build(n.ID, n.Entries)
		if pt.Root.Count != len(n.Entries) || pt.Size() != 2*len(n.Entries)-1 {
			t.Fatalf("node %d: %d entries, partition count %d, size %d",
				n.ID, len(n.Entries), pt.Root.Count, pt.Size())
		}
		totalEntries += len(n.Entries)
		totalPositions += pt.Size()
		return true
	})
	if totalPositions > 2*totalEntries {
		t.Errorf("positions %d exceed 2x entries %d", totalPositions, totalEntries)
	}
	pk := rtree.Pack(tr)
	if pk.NodeCount() != tr.NodeCount() || pk.Positions() != totalPositions {
		t.Errorf("packed table: %d pages, %d positions; want %d, %d",
			pk.NodeCount(), pk.Positions(), tr.NodeCount(), totalPositions)
	}
}
