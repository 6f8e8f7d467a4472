// Package bpt implements the binary partition trees of Section 4.2 of the
// paper: per-R-tree-node binary trees that recursively split a node's entries
// with the R*-tree split algorithm, enabling "super entries" (n, code) that
// coarsely summarize the entries a query did not access.
//
// A cached or shipped representation of an R-tree node is a Cut: an antichain
// of partition-tree positions that together cover every entry of the node
// exactly once. The normal compact form CF(n, Q) is the frontier of the
// positions a query expanded; the d+-level compact form refines every cut
// element by up to d further levels; the full form is the cut of all leaves.
package bpt

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Code addresses a position in a binary partition tree: the empty string is
// the root, and each '0'/'1' descends to the left/right child (the paper's
// (n, code) super-entry designator).
type Code string

// Child returns the code of the left (bit 0) or right (bit 1) child.
func (c Code) Child(right bool) Code {
	if right {
		return c + "1"
	}
	return c + "0"
}

// Parent returns the code of the parent position; the root returns itself.
func (c Code) Parent() Code {
	if len(c) == 0 {
		return c
	}
	return c[:len(c)-1]
}

// IsStrictAncestorOf reports whether d lies strictly below c.
func (c Code) IsStrictAncestorOf(d Code) bool {
	return len(d) > len(c) && strings.HasPrefix(string(d), string(c))
}

// PNode is one position of a partition tree. Leaf positions carry the real
// R-tree entry they stand for; internal positions group the entries beneath
// them under a combined MBR (the super entry's MBR).
type PNode struct {
	Code        Code
	MBR         geom.Rect
	Left, Right *PNode
	Entry       rtree.Entry // valid iff Leaf()
	Count       int         // number of real entries beneath (1 for leaves)
}

// Leaf reports whether the position stands for a single real entry.
func (p *PNode) Leaf() bool { return p.Left == nil }

// Tree is the binary partition tree of one R-tree node.
type Tree struct {
	NodeID rtree.NodeID
	Root   *PNode
	Height int // edges on the longest root-leaf path; 0 for a single entry
	byCode map[Code]*PNode
}

// Build constructs the partition tree over the given entries (the entry list
// of R-tree node nodeID). It panics on an empty entry list: partition trees
// exist only for non-empty nodes.
//
// Construction is the hot cost of index updates (every touched page's tree
// is rebuilt), so the recursive splitting runs in place over one private
// copy of the entries with shared split scratch, instead of copying the two
// halves at every level.
func Build(nodeID rtree.NodeID, entries []rtree.Entry) *Tree {
	if len(entries) == 0 {
		panic("bpt: cannot build partition tree over zero entries")
	}
	t := &Tree{NodeID: nodeID, byCode: make(map[Code]*PNode, 2*len(entries))}
	work := append(make([]rtree.Entry, 0, len(entries)), entries...)
	t.Root = t.build("", work, rtree.NewSplitScratch(len(entries)))
	return t
}

func (t *Tree) build(code Code, entries []rtree.Entry, scratch *rtree.SplitScratch) *PNode {
	p := &PNode{Code: code, Count: len(entries)}
	t.byCode[code] = p
	if len(t.byCode) > 0 && len(code) > t.Height {
		t.Height = len(code)
	}
	if len(entries) == 1 {
		p.Entry = entries[0]
		p.MBR = entries[0].MBR
		return p
	}
	k := scratch.Split(entries, 1)
	p.Left = t.build(code.Child(false), entries[:k], scratch)
	p.Right = t.build(code.Child(true), entries[k:], scratch)
	p.MBR = p.Left.MBR.Union(p.Right.MBR)
	return p
}

// Node returns the position with the given code.
func (t *Tree) Node(c Code) (*PNode, bool) {
	p, ok := t.byCode[c]
	return p, ok
}

// Cut is a set of partition-tree positions, kept sorted by code. A valid cut
// is an antichain that covers every entry of the node exactly once.
type Cut []Code

// normalize sorts and deduplicates in place, returning the result.
func (c Cut) normalize() Cut {
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	out := c[:0]
	for i, code := range c {
		if i == 0 || code != c[i-1] {
			out = append(out, code)
		}
	}
	return out
}

// Contains reports whether code is an element of the cut.
func (c Cut) Contains(code Code) bool {
	i := sort.Search(len(c), func(i int) bool { return c[i] >= code })
	return i < len(c) && c[i] == code
}

// FullCut returns the finest cut: every leaf position (the paper's full form).
func (t *Tree) FullCut() Cut {
	return appendLeafCodes(nil, t.Root)
}

func appendLeafCodes(dst Cut, p *PNode) Cut {
	if p.Leaf() {
		return append(dst, p.Code)
	}
	dst = appendLeafCodes(dst, p.Left)
	return appendLeafCodes(dst, p.Right)
}

// RootCut returns the coarsest cut: the root alone (the whole node as one
// super entry).
func (t *Tree) RootCut() Cut { return Cut{""} }

// MergeCuts combines two cuts of the same tree into their finest common
// refinement: the deepest positions of the union survive. This is how the
// cache integrates a newly shipped representation of a node with the one it
// already holds — knowledge only ever gets finer.
func MergeCuts(a, b Cut) Cut {
	u := make(Cut, 0, len(a)+len(b))
	u = append(u, a...)
	u = append(u, b...)
	u = u.normalize()
	out := u[:0]
	for i, code := range u {
		// In lexicographic order every strict descendant of code follows it
		// immediately (all codes sharing the prefix are contiguous), so one
		// look-ahead decides survival.
		if i+1 < len(u) && code.IsStrictAncestorOf(u[i+1]) {
			continue
		}
		out = append(out, code)
	}
	return out
}

// ExpandCut refines each cut element by up to d further levels of the
// partition tree — the paper's d+-level compact form. d = 0 returns the cut
// unchanged; d >= Height from any element reaches the real entries. The cut
// may be in any order; the result is sorted.
func (t *Tree) ExpandCut(cut Cut, d int) Cut {
	if d <= 0 {
		return append(Cut(nil), cut...)
	}
	var out Cut
	for _, code := range cut {
		if p, ok := t.byCode[code]; ok {
			out = appendDescend(out, p, d)
		}
	}
	return out.normalize()
}

func appendDescend(dst Cut, p *PNode, depth int) Cut {
	if p.Leaf() || depth == 0 {
		return append(dst, p.Code)
	}
	dst = appendDescend(dst, p.Left, depth-1)
	return appendDescend(dst, p.Right, depth-1)
}

// Frontier derives the normal compact form from the set of positions a query
// expanded (popped and replaced by their children). The root counts as
// expanded whenever the set is non-empty; an empty set yields the root cut.
// Leaf positions are always frontier elements of their branch. A
// left-to-right depth-first walk emits codes in lexicographic order already
// (for an antichain, order is decided before any extension), so the result
// is sorted without normalizing.
func (t *Tree) Frontier(expanded map[Code]bool) Cut {
	if len(expanded) == 0 || !expanded[t.Root.Code] {
		return Cut{t.Root.Code}
	}
	return appendFrontier(nil, t.Root, expanded)
}

func appendFrontier(dst Cut, p *PNode, expanded map[Code]bool) Cut {
	if !p.Leaf() && expanded[p.Code] {
		dst = appendFrontier(dst, p.Left, expanded)
		return appendFrontier(dst, p.Right, expanded)
	}
	return append(dst, p.Code)
}

// PartialFrontier generalizes Frontier to expansion sets that do not start
// at the root: the server may resume a remainder query from a client's super
// entry (n, code) and expand only the subtree below it. For every expansion
// region (an expanded position with no expanded ancestor) the unexpanded
// frontier beneath it is emitted. The result is an antichain covering
// exactly the explored regions — merging it into the client's existing cut
// refines precisely the parts the query touched.
func (t *Tree) PartialFrontier(expanded map[Code]bool) Cut {
	var out Cut
	var walk func(p *PNode)
	walk = func(p *PNode) {
		if !p.Leaf() && expanded[p.Code] {
			walk(p.Left)
			walk(p.Right)
			return
		}
		out = append(out, p.Code)
	}
	for code := range expanded {
		isRoot := code == "" || !expanded[code.Parent()]
		if !isRoot {
			continue
		}
		if p, ok := t.byCode[code]; ok && !p.Leaf() {
			walk(p)
		}
	}
	return out.normalize()
}

// ValidateCut checks that cut is an antichain of existing positions covering
// every real entry exactly once.
func (t *Tree) ValidateCut(cut Cut) error {
	covered := 0
	for i, code := range cut {
		p, ok := t.byCode[code]
		if !ok {
			return fmt.Errorf("bpt: cut element %q does not exist", code)
		}
		covered += p.Count
		for j := i + 1; j < len(cut); j++ {
			if code.IsStrictAncestorOf(cut[j]) || cut[j].IsStrictAncestorOf(code) {
				return fmt.Errorf("bpt: cut elements %q and %q are related", code, cut[j])
			}
		}
	}
	if covered != t.Root.Count {
		return fmt.Errorf("bpt: cut covers %d entries, node has %d", covered, t.Root.Count)
	}
	return nil
}

// Size returns the number of positions (2N-1 for N entries).
func (t *Tree) Size() int { return len(t.byCode) }
