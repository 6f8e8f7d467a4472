package rtree

import (
	"repro/internal/geom"
	"repro/internal/pq"
)

// RangeQuery returns the leaf entries whose MBRs intersect window, in
// unspecified order: the direct recursive descent the tests check a tree's
// contents with. Production evaluates queries over packed pages in package
// query.
func (t *Tree) RangeQuery(window geom.Rect) []Entry {
	var out []Entry
	t.searchNode(t.node(t.root), window, &out)
	return out
}

func (t *Tree) searchNode(n *Node, window geom.Rect, out *[]Entry) {
	for _, e := range n.Entries {
		if !e.MBR.Intersects(window) {
			continue
		}
		if n.Leaf() {
			*out = append(*out, e)
		} else {
			t.searchNode(t.node(e.Child), window, out)
		}
	}
}

// DistanceWithin returns the leaf entries whose MBR lies within dist of p,
// by best-first search like KNN.
func (t *Tree) DistanceWithin(p geom.Point, dist float64) []Entry {
	var out []Entry
	var h pq.Queue[Entry]
	h.Push(0, t.RootEntry())
	for h.Len() > 0 {
		d, e := h.Pop()
		if d > dist {
			break
		}
		if e.IsLeafEntry() {
			out = append(out, e)
			continue
		}
		node := t.node(e.Child)
		for _, c := range node.Entries {
			if md := geom.MinDist(p, c.MBR); md <= dist {
				h.Push(md, c)
			}
		}
	}
	return out
}
