package rtree

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// Insert adds an object with the given bounding rectangle.
func (t *Tree) Insert(obj ObjectID, mbr geom.Rect) {
	reinserted := make([]bool, t.height)
	t.insertEntry(Entry{MBR: mbr, Obj: obj}, 0, reinserted)
	t.size++
}

// insertEntry places e into a node at the given level (0 = leaf), handling
// overflow via forced reinsertion (once per level per top-level operation,
// tracked by reinserted) and R* splits.
func (t *Tree) insertEntry(e Entry, level int, reinserted []bool) {
	n := t.mut(t.chooseSubtree(e.MBR, level).ID)
	n.Entries = append(n.Entries, e)
	t.touch(n)
	if e.Child != InvalidNode {
		t.setParent(e.Child, n.ID)
	}
	t.adjustPathMBRs(n)
	if len(n.Entries) > t.params.MaxEntries {
		t.overflow(n, reinserted)
	}
}

// chooseSubtree descends from the root to the node at the target level using
// the R* criteria: minimum overlap enlargement when the children are leaves,
// minimum area enlargement otherwise (ties broken by smaller area).
func (t *Tree) chooseSubtree(mbr geom.Rect, level int) *Node {
	n := t.node(t.root)
	for n.Level > level {
		var best int
		if n.Level == 1 {
			best = chooseLeastOverlapEnlargement(n.Entries, mbr)
		} else {
			best = chooseLeastAreaEnlargement(n.Entries, mbr)
		}
		n = t.node(n.Entries[best].Child)
	}
	return n
}

func chooseLeastAreaEnlargement(entries []Entry, mbr geom.Rect) int {
	best := 0
	bestEnl := entries[0].MBR.Enlargement(mbr)
	bestArea := entries[0].MBR.Area()
	for i := 1; i < len(entries); i++ {
		enl := entries[i].MBR.Enlargement(mbr)
		area := entries[i].MBR.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// chooseLeastOverlapEnlargement picks the entry whose overlap with its
// siblings grows least when extended to cover mbr; ties go to the smaller
// area enlargement, then the smaller area, then the first index.
//
// It seeds the bound with the entry of least (area enlargement, area) and
// stops summing a candidate as soon as its partial sum shows it cannot win.
// That is exact when every rectangle is finite and proper and every area
// and area enlargement is finite: grown covers old, so each term
// grown∩e − old∩e is non-negative in floating point and a partial sum
// never exceeds the full one, and a candidate summed in full is summed in
// overlapEnlargement's order (a sibling grown misses adds exactly 0 − 0).
// When mbr lies inside an entry, that entry's bound is zero and every other
// candidate stops at once: O(M) instead of O(M²). Anything else (NaN,
// infinities, inverted or overflowing rectangles) takes the full scan.
func chooseLeastOverlapEnlargement(entries []Entry, mbr geom.Rect) int {
	if !mbr.Usable() {
		return fullOverlapScan(entries, mbr)
	}
	best := -1
	var bestAreaEnl, bestArea float64
	for i := range entries {
		r := entries[i].MBR
		aEnl, area := r.Enlargement(mbr), r.Area()
		if !r.Usable() || aEnl-aEnl != 0 || area-area != 0 {
			return fullOverlapScan(entries, mbr)
		}
		if best < 0 || aEnl < bestAreaEnl || (aEnl == bestAreaEnl && area < bestArea) {
			best, bestAreaEnl, bestArea = i, aEnl, area
		}
	}
	seed := best
	bound, _ := overlapEnlargementWithin(entries, seed, mbr, math.Inf(1), true)
	for i := range entries {
		if i == seed {
			continue
		}
		aEnl, area := entries[i].MBR.Enlargement(mbr), entries[i].MBR.Area()
		winsTie := aEnl < bestAreaEnl || (aEnl == bestAreaEnl &&
			(area < bestArea || (area == bestArea && i < best)))
		if oEnl, ok := overlapEnlargementWithin(entries, i, mbr, bound, winsTie); ok {
			best, bound, bestAreaEnl, bestArea = i, oEnl, aEnl, area
		}
	}
	return best
}

// overlapEnlargementWithin sums entry idx's overlap enlargement in index
// order. ok reports that the sum beats bound: it is below bound, or equal
// to it when winsTie. Terms are non-negative, so the sum gives up as soon as
// a partial sum has lost.
func overlapEnlargementWithin(entries []Entry, idx int, mbr geom.Rect, bound float64, winsTie bool) (delta float64, ok bool) {
	if !winsTie && bound <= 0 {
		return 0, false
	}
	old := entries[idx].MBR
	grown := old.Union(mbr)
	for i := range entries {
		e := entries[i].MBR
		if i == idx || !grown.Intersects(e) {
			continue
		}
		delta += grown.OverlapArea(e) - old.OverlapArea(e)
		if delta > bound || (delta == bound && !winsTie) {
			return delta, false
		}
	}
	return delta, true
}

// fullOverlapScan is chooseLeastOverlapEnlargement outside its exact
// domain: every candidate's overlap enlargement summed over every sibling.
func fullOverlapScan(entries []Entry, mbr geom.Rect) int {
	best := 0
	bestOverlapEnl := overlapEnlargement(entries, 0, mbr)
	bestAreaEnl := entries[0].MBR.Enlargement(mbr)
	bestArea := entries[0].MBR.Area()
	for i := 1; i < len(entries); i++ {
		oEnl := overlapEnlargement(entries, i, mbr)
		aEnl := entries[i].MBR.Enlargement(mbr)
		area := entries[i].MBR.Area()
		if oEnl < bestOverlapEnl ||
			(oEnl == bestOverlapEnl && (aEnl < bestAreaEnl ||
				(aEnl == bestAreaEnl && area < bestArea))) {
			best, bestOverlapEnl, bestAreaEnl, bestArea = i, oEnl, aEnl, area
		}
	}
	return best
}

func overlapEnlargement(entries []Entry, idx int, mbr geom.Rect) float64 {
	old := entries[idx].MBR
	grown := old.Union(mbr)
	var delta float64
	for i, e := range entries {
		if i == idx {
			continue
		}
		delta += grown.OverlapArea(e.MBR) - old.OverlapArea(e.MBR)
	}
	return delta
}

// overflow applies R* overflow treatment to n (this version's own copy):
// forced reinsertion the first time a level overflows during one top-level
// insert, a split afterwards.
func (t *Tree) overflow(n *Node, reinserted []bool) {
	if n.ID != t.root && n.Level < len(reinserted) && !reinserted[n.Level] {
		reinserted[n.Level] = true
		t.reinsert(n, reinserted)
		return
	}
	t.splitNode(n, reinserted)
}

// reinsert removes the ReinsertCount entries whose centers are farthest from
// the node's MBR center and re-inserts them (closest first), which lets the
// tree escape locally bad groupings without a split.
func (t *Tree) reinsert(n *Node, reinserted []bool) {
	center := n.MBR().Center()
	type distEntry struct {
		d float64
		e Entry
	}
	des := make([]distEntry, len(n.Entries))
	for i, e := range n.Entries {
		des[i] = distEntry{geom.DistSq(center, e.MBR.Center()), e}
	}
	sort.SliceStable(des, func(i, j int) bool { return des[i].d < des[j].d })

	keep := len(des) - t.params.ReinsertCount
	n.Entries = n.Entries[:0]
	for _, de := range des[:keep] {
		n.Entries = append(n.Entries, de.e)
	}
	t.touch(n)
	t.adjustPathMBRs(n)

	level := n.Level
	for _, de := range des[keep:] { // close reinsert: nearest first
		t.insertEntry(de.e, level, reinserted)
	}
}

// splitNode splits an overflowing node and propagates upward.
func (t *Tree) splitNode(n *Node, reinserted []bool) {
	left, right := SplitEntries(n.Entries, t.params.MinEntries)

	n.Entries = left
	nn := t.newNode(n.Level)
	nn.Entries = right
	t.touch(n)
	t.touch(nn)
	if n.Level > 0 {
		for _, e := range nn.Entries {
			t.setParent(e.Child, nn.ID)
		}
	}

	if n.ID == t.root {
		root := t.newNode(n.Level + 1)
		root.Entries = []Entry{
			{MBR: n.MBR(), Child: n.ID},
			{MBR: nn.MBR(), Child: nn.ID},
		}
		n.Parent = root.ID
		nn.Parent = root.ID
		t.root = root.ID
		t.height++
		t.touch(root)
		return
	}

	parent := t.mut(n.Parent)
	i := parentEntryIndex(parent, n.ID)
	parent.Entries[i].MBR = n.MBR()
	parent.Entries = append(parent.Entries, Entry{MBR: nn.MBR(), Child: nn.ID})
	t.touch(parent)
	nn.Parent = parent.ID
	t.adjustPathMBRs(parent)
	if len(parent.Entries) > t.params.MaxEntries {
		t.overflow(parent, reinserted)
	}
}
