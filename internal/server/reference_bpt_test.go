package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bpt"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// The pointer partition tree is the independent reference the packed pages,
// and the cuts the server emits from them, are compared against
// (TestPackedMatchesArenaDifferential). It is the direct reading of Section
// 4.2: one node per position with child pointers, codes resolved through a
// map, cuts as sorted code lists. The page builder packs the same tree into
// preorder arrays; both run the deterministic rtree.SplitScratch.Split,
// which split_test.go holds to its own reference.

// refNode is one position of a reference partition tree. Leaf positions
// carry the real R-tree entry they stand for; internal positions group the
// entries beneath them under a combined MBR (the super entry's MBR).
type refNode struct {
	code        bpt.Code
	mbr         geom.Rect
	left, right *refNode
	entry       rtree.Entry // valid iff leaf()
	count       int         // real entries beneath (1 for leaves)
}

func (p *refNode) leaf() bool { return p.left == nil }

// refTree is the reference partition tree of one R-tree node.
type refTree struct {
	root   *refNode
	height int // edges on the longest root-leaf path
	byCode map[bpt.Code]*refNode
}

// refCut is a set of positions kept sorted by code. A valid cut is an
// antichain that covers every entry of the node exactly once.
type refCut []bpt.Code

// referenceBuild builds the partition tree over a non-empty entry list,
// splitting one private copy of the entries in place.
func referenceBuild(entries []rtree.Entry) *refTree {
	t := &refTree{byCode: make(map[bpt.Code]*refNode, 2*len(entries))}
	work := slices.Clone(entries)
	t.root = t.build("", work, rtree.NewSplitScratch(len(entries)))
	return t
}

func (t *refTree) build(code bpt.Code, entries []rtree.Entry, scratch *rtree.SplitScratch) *refNode {
	p := &refNode{code: code, count: len(entries)}
	t.byCode[code] = p
	t.height = max(t.height, len(code))
	if len(entries) == 1 {
		p.entry = entries[0]
		p.mbr = entries[0].MBR
		return p
	}
	k := scratch.Split(entries, 1)
	p.left = t.build(code+"0", entries[:k], scratch)
	p.right = t.build(code+"1", entries[k:], scratch)
	p.mbr = p.left.mbr.Union(p.right.mbr)
	return p
}

// normalize sorts and deduplicates in place, returning the result.
func (c refCut) normalize() refCut {
	slices.Sort(c)
	return slices.Compact(c)
}

// fullCut returns the finest cut: every leaf position (the full form).
func (t *refTree) fullCut() refCut {
	var out refCut
	for code, p := range t.byCode {
		if p.leaf() {
			out = append(out, code)
		}
	}
	return out.normalize()
}

// expandCut refines each cut element by up to d further levels (the
// d+-level compact form). The cut may be in any order; for d > 0 the result
// is sorted, and d = 0 returns a copy of the cut as given.
func (t *refTree) expandCut(cut refCut, d int) refCut {
	if d <= 0 {
		return slices.Clone(cut)
	}
	var out refCut
	var descend func(p *refNode, depth int)
	descend = func(p *refNode, depth int) {
		if p.leaf() || depth == 0 {
			out = append(out, p.code)
			return
		}
		descend(p.left, depth-1)
		descend(p.right, depth-1)
	}
	for _, code := range cut {
		if p, ok := t.byCode[code]; ok {
			descend(p, d)
		}
	}
	return out.normalize()
}

// frontier derives the normal compact form from the set of positions a
// query expanded: an empty set, or one without the root, yields the root
// cut. The left-to-right walk emits code order.
func (t *refTree) frontier(expanded map[bpt.Code]bool) refCut {
	var out refCut
	var walk func(p *refNode)
	walk = func(p *refNode) {
		if !p.leaf() && expanded[p.code] {
			walk(p.left)
			walk(p.right)
			return
		}
		out = append(out, p.code)
	}
	walk(t.root)
	return out
}

// validateCut checks that cut is an antichain of existing positions covering
// every real entry exactly once.
func (t *refTree) validateCut(cut refCut) error {
	covered := 0
	for i, code := range cut {
		p, ok := t.byCode[code]
		if !ok {
			return fmt.Errorf("cut element %q does not exist", code)
		}
		covered += p.count
		for _, other := range cut[i+1:] {
			if code.IsStrictAncestorOf(other) || other.IsStrictAncestorOf(code) {
				return fmt.Errorf("cut elements %q and %q are related", code, other)
			}
		}
	}
	if covered != t.root.count {
		return fmt.Errorf("cut covers %d entries, node has %d", covered, t.root.count)
	}
	return nil
}

func refEntries(r *rand.Rand, n int) []rtree.Entry {
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

// randomRefCut draws a random valid cut by stochastic descent from the root.
func randomRefCut(r *rand.Rand, t *refTree) refCut {
	var cut refCut
	var walk func(p *refNode)
	walk = func(p *refNode) {
		if p.leaf() || r.Intn(3) == 0 {
			cut = append(cut, p.code)
			return
		}
		walk(p.left)
		walk(p.right)
	}
	walk(t.root)
	return cut
}

// coveredBy reports whether code equals or lies below an element of cut.
func coveredBy(code bpt.Code, cut refCut) bool {
	for _, c := range cut {
		if c == code || c.IsStrictAncestorOf(code) {
			return true
		}
	}
	return false
}

// TestReferenceExpandCut: 0 levels is the identity, 1 level of the root is
// its two children, every level stays a valid cut that refines the one
// before, enough levels reach the full form, and the result is sorted
// whatever the order of the input cut.
func TestReferenceExpandCut(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	pt := referenceBuild(refEntries(r, 32))
	root := refCut{""}
	if got := pt.expandCut(root, 0); !slices.Equal(got, root) {
		t.Errorf("0-level expansion changed the cut: %v", got)
	}
	if one := pt.expandCut(root, 1); !slices.Equal(one, refCut{"0", "1"}) {
		t.Fatalf("1-level expansion = %v", one)
	}
	full := pt.fullCut()
	if len(full) != 32 || pt.validateCut(full) != nil {
		t.Fatalf("full cut %v of 32 entries", full)
	}
	prev := root
	for d := 1; d <= pt.height; d++ {
		cur := pt.expandCut(root, d)
		if err := pt.validateCut(cur); err != nil {
			t.Fatalf("d=%d invalid: %v", d, err)
		}
		for _, code := range cur {
			if !coveredBy(code, prev) {
				t.Fatalf("d=%d not a refinement of d=%d", d, d-1)
			}
		}
		prev = cur
	}
	if !slices.Equal(prev, full) {
		t.Errorf("expansion by the height %v != full cut %v", prev, full)
	}

	// Random cuts of random trees, expanded from a shuffled order.
	for trial := 0; trial < 150; trial++ {
		pt := referenceBuild(refEntries(r, 2+r.Intn(40)))
		cut := randomRefCut(r, pt)
		shuffled := slices.Clone(cut)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for d := 1; d <= 3; d++ {
			refined := pt.expandCut(cut, d)
			if err := pt.validateCut(refined); err != nil {
				t.Fatalf("trial %d d=%d: %v", trial, d, err)
			}
			if !slices.IsSorted(refined) {
				t.Fatalf("trial %d d=%d: expansion %v is not sorted", trial, d, refined)
			}
			if got := pt.expandCut(shuffled, d); !reflect.DeepEqual(got, refined) {
				t.Fatalf("trial %d d=%d: expansion of a shuffled cut %v != %v", trial, d, got, refined)
			}
		}
	}
}

// TestReferenceFrontier: nothing expanded is the root cut, the root alone
// its two children, and any upward-closed expanded set a valid cut in code
// order with no expanded internal position in it.
func TestReferenceFrontier(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	pt := referenceBuild(refEntries(r, 16))
	if f := pt.frontier(nil); !slices.Equal(f, refCut{""}) {
		t.Errorf("empty frontier = %v, want the root cut", f)
	}
	if f := pt.frontier(map[bpt.Code]bool{"": true}); !slices.Equal(f, refCut{"0", "1"}) {
		t.Errorf("root-only frontier = %v", f)
	}
	for trial := 0; trial < 100; trial++ {
		expanded := map[bpt.Code]bool{}
		var walk func(p *refNode)
		walk = func(p *refNode) {
			if p.leaf() || r.Intn(2) == 0 {
				return
			}
			expanded[p.code] = true
			walk(p.left)
			walk(p.right)
		}
		walk(pt.root)
		f := pt.frontier(expanded)
		if err := pt.validateCut(f); err != nil {
			t.Fatalf("frontier invalid: %v (expanded=%v)", err, expanded)
		}
		if !slices.IsSorted(f) {
			t.Fatalf("frontier %v is not sorted", f)
		}
		for _, code := range f {
			if p := pt.byCode[code]; !p.leaf() && expanded[code] {
				t.Fatalf("expanded internal %q in frontier", code)
			}
		}
	}
}

// TestReferenceValidateCutRejects: the checker refuses partial covers,
// related elements and positions the tree does not have.
func TestReferenceValidateCutRejects(t *testing.T) {
	pt := referenceBuild(refEntries(rand.New(rand.NewSource(36)), 8))
	for _, cut := range []refCut{{"0"}, {"", "0"}, {"0101010101"}} {
		if err := pt.validateCut(cut); err == nil {
			t.Errorf("cut %v accepted", cut)
		}
	}
}
