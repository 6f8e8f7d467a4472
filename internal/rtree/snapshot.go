package rtree

import "slices"

// Clone returns a new version of the tree that shares every page with t.
// Only the page table is copied (8 bytes per NodeID ever issued); either
// tree's later mutations copy the pages they write, so neither observes the
// other's writes. Both trees leave with a fresh stamp no page carries yet —
// which makes Clone a write to t as far as concurrent mutation goes, though
// not one a reader of t can see. The touch hook is not copied.
func (t *Tree) Clone() *Tree {
	c := *t
	c.nodes = slices.Clone(t.nodes)
	c.onTouch = nil
	c.stamp = new(stamp)
	t.stamp = new(stamp)
	return &c
}
