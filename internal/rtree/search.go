package rtree

import (
	"repro/internal/geom"
	"repro/internal/pq"
)

// KNN returns the k leaf entries nearest to p in ascending distance order
// using best-first search (Hjaltason & Samet). Fewer than k entries are
// returned when the tree holds fewer objects.
func (t *Tree) KNN(p geom.Point, k int) []Entry {
	if k <= 0 || t.size == 0 {
		return nil
	}
	var h pq.Queue[Entry]
	h.Push(0, t.RootEntry())
	out := make([]Entry, 0, k)
	for h.Len() > 0 && len(out) < k {
		_, e := h.Pop()
		if e.IsLeafEntry() {
			out = append(out, e)
			continue
		}
		node := t.node(e.Child)
		for _, c := range node.Entries {
			h.Push(geom.MinDist(p, c.MBR), c)
		}
	}
	return out
}
