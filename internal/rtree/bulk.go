package rtree

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// Item is an (object, rectangle) pair for bulk loading.
type Item struct {
	Obj ObjectID
	MBR geom.Rect
}

// BulkLoad builds a tree from items using Sort-Tile-Recursive packing.
// fill in (0,1] controls the page fill factor; the paper's R*-trees exhibit
// roughly 70% occupancy, so 0.7 reproduces their index sizes. A fill of 0
// defaults to 0.7.
func BulkLoad(p Params, items []Item, fill float64) *Tree {
	t := New(p)
	if len(items) == 0 {
		return t
	}
	if fill <= 0 {
		fill = 0.7
	}
	if fill > 1 {
		fill = 1
	}
	perNode := int(math.Round(float64(t.params.MaxEntries) * fill))
	if perNode < 2 {
		perNode = 2
	}

	entries := make([]Entry, len(items))
	for i, it := range items {
		entries[i] = Entry{MBR: it.MBR, Obj: it.Obj}
	}
	t.size = len(items)

	level := 0
	for {
		nodeIDs := t.packLevel(entries, level, perNode)
		if len(nodeIDs) == 1 {
			// Replace the initial empty root with the packed root.
			t.freeNode(t.root)
			t.root = nodeIDs[0]
			t.setParent(t.root, InvalidNode)
			t.height = level + 1
			return t
		}
		next := make([]Entry, len(nodeIDs))
		for i, id := range nodeIDs {
			next[i] = Entry{MBR: t.node(id).MBR(), Child: id}
		}
		entries = next
		level++
	}
}

// packLevel tiles entries into nodes of the given level using STR: sort by
// x-center into vertical slabs, then each slab by y-center into runs of
// perNode entries.
func (t *Tree) packLevel(entries []Entry, level, perNode int) []NodeID {
	n := len(entries)
	pages := (n + perNode - 1) / perNode
	slabs := int(math.Ceil(math.Sqrt(float64(pages))))
	slabSize := slabs * perNode

	slices.SortStableFunc(entries, func(a, b Entry) int {
		return compareCenter(a.MBR.Center().X, b.MBR.Center().X)
	})

	var ids []NodeID
	for s := 0; s < n; s += slabSize {
		end := s + slabSize
		if end > n {
			end = n
		}
		slab := entries[s:end]
		slices.SortStableFunc(slab, func(a, b Entry) int {
			return compareCenter(a.MBR.Center().Y, b.MBR.Center().Y)
		})
		for o := 0; o < len(slab); o += perNode {
			oend := o + perNode
			if oend > len(slab) {
				oend = len(slab)
			}
			node := t.newNode(level)
			node.Entries = append(node.Entries, slab[o:oend]...)
			t.touch(node)
			if level > 0 {
				for _, e := range node.Entries {
					t.setParent(e.Child, node.ID)
				}
			}
			ids = append(ids, node.ID)
		}
	}
	return ids
}

// compareCenter is the three-way form of the < that STR packing orders centre
// coordinates by. A stable sort only asks whether the result is negative, so
// every input, NaN included, gets the order sort.SliceStable gives under <;
// cmp.Compare would move a NaN centre first.
func compareCenter(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}
