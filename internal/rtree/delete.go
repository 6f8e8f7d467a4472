package rtree

import "repro/internal/geom"

// Delete removes the object with the given id and bounding rectangle.
// It reports whether the object was found. Underfull nodes are dissolved and
// their entries re-inserted (the condense-tree step), and the root collapses
// when it has a single child.
func (t *Tree) Delete(obj ObjectID, mbr geom.Rect) bool {
	leaf := t.findLeaf(t.node(t.root), obj, mbr)
	if leaf == nil {
		return false
	}
	leaf = t.mut(leaf.ID)
	for i, e := range leaf.Entries {
		if e.Obj == obj && e.MBR == mbr {
			leaf.Entries = append(leaf.Entries[:i], leaf.Entries[i+1:]...)
			t.touch(leaf)
			break
		}
	}
	t.size--
	t.condense(leaf)
	return true
}

// findLeaf locates the leaf containing the (obj, mbr) entry.
func (t *Tree) findLeaf(n *Node, obj ObjectID, mbr geom.Rect) *Node {
	if n.Leaf() {
		for _, e := range n.Entries {
			if e.Obj == obj && e.MBR == mbr {
				return n
			}
		}
		return nil
	}
	for _, e := range n.Entries {
		if e.MBR.Contains(mbr) {
			if found := t.findLeaf(t.node(e.Child), obj, mbr); found != nil {
				return found
			}
		}
	}
	return nil
}

// condense dissolves underfull nodes on the path from n to the root,
// collecting their surviving entries for re-insertion, then shrinks the root.
func (t *Tree) condense(n *Node) {
	type orphan struct {
		e     Entry
		level int
	}
	var orphans []orphan

	for n.ID != t.root {
		parentID := n.Parent
		if len(n.Entries) < t.params.MinEntries {
			parent := t.mut(parentID)
			i := parentEntryIndex(parent, n.ID)
			parent.Entries = append(parent.Entries[:i], parent.Entries[i+1:]...)
			t.touch(parent)
			for _, e := range n.Entries {
				orphans = append(orphans, orphan{e, n.Level})
			}
			t.freeNode(n.ID)
		} else {
			t.adjustPathMBRs(n)
		}
		n = t.node(parentID) // either branch may have replaced the parent page
	}

	// Re-insert orphaned entries at their original levels.
	for _, o := range orphans {
		reinserted := make([]bool, t.height)
		t.insertEntry(o.e, o.level, reinserted)
	}

	// Shrink the root while it is a single-child intermediate node.
	for root := t.node(t.root); !root.Leaf() && len(root.Entries) == 1; root = t.node(t.root) {
		child := root.Entries[0].Child
		t.freeNode(root.ID)
		t.setParent(child, InvalidNode)
		t.root = child
		t.height--
	}
}
