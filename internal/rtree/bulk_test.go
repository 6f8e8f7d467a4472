package rtree

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// referenceBulkLoad is BulkLoad as it was when STR packing sorted through
// sort.SliceStable; BulkLoad must build the same tree byte for byte.
func referenceBulkLoad(p Params, items []Item, fill float64) *Tree {
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
	for level := 0; ; level++ {
		nodeIDs := t.referencePackLevel(entries, level, perNode)
		if len(nodeIDs) == 1 {
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
	}
}

func (t *Tree) referencePackLevel(entries []Entry, level, perNode int) []NodeID {
	n := len(entries)
	pages := (n + perNode - 1) / perNode
	slabs := int(math.Ceil(math.Sqrt(float64(pages))))
	slabSize := slabs * perNode
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].MBR.Center().X < entries[j].MBR.Center().X
	})
	var ids []NodeID
	for s := 0; s < n; s += slabSize {
		slab := entries[s:min(s+slabSize, n)]
		sort.SliceStable(slab, func(i, j int) bool {
			return slab[i].MBR.Center().Y < slab[j].MBR.Center().Y
		})
		for o := 0; o < len(slab); o += perNode {
			node := t.newNode(level)
			node.Entries = append(node.Entries, slab[o:min(o+perNode, len(slab))]...)
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

// neLikeItems draws n float32-quantised points and small rectangles around a
// few dozen Gaussian clusters, a fifth of them sharing the centre of an
// earlier item (the STR sorts' ties).
func neLikeItems(rng *rand.Rand, n int) []Item {
	centres := make([]geom.Point, 40)
	for i := range centres {
		centres[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	q := func(v float64) float64 { return float64(float32(v)) }
	items := make([]Item, n)
	for i := range items {
		var c geom.Point
		if i > 0 && rng.Intn(5) == 0 {
			c = items[rng.Intn(i)].MBR.Center()
		} else {
			k := centres[rng.Intn(len(centres))]
			c = geom.Pt(q(k.X+rng.NormFloat64()*0.03), q(k.Y+rng.NormFloat64()*0.03))
		}
		w := 0.0
		if rng.Intn(3) == 0 {
			w = q(rng.Float64() * 1e-3)
		}
		items[i] = Item{Obj: ObjectID(i + 1), MBR: geom.RectFromCenter(c, w, w)}
	}
	return items
}

// TestBulkLoadMatchesReference pins BulkLoad to the sort.SliceStable build:
// NE-like data with duplicated centres, uniform data, and centres that are
// NaN (where cmp.Compare and < disagree).
func TestBulkLoadMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	uniform := make([]Item, 10_000)
	for i := range uniform {
		x, y := rng.Float64(), rng.Float64()
		uniform[i] = Item{Obj: ObjectID(i + 1), MBR: geom.Rect{MinX: x, MinY: y, MaxX: x + 1e-4, MaxY: y + 1e-4}}
	}
	special := neLikeItems(rng, 2_000)
	for i := 0; i < len(special); i += 37 {
		special[i].MBR.MinX = math.NaN()
		special[i+1].MBR = geom.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: 0}
	}
	for _, tc := range []struct {
		name  string
		items []Item
		p     Params
	}{
		{"ne-like", neLikeItems(rng, 100_000), DefaultParams()},
		{"uniform", uniform, DefaultParams()},
		{"uniform/M=16", uniform, Params{MaxEntries: 16}},
		{"nan-centres/M=16", special, Params{MaxEntries: 16}},
	} {
		want := referenceBulkLoad(tc.p, tc.items, 0.7).AppendImage(nil)
		got := BulkLoad(tc.p, tc.items, 0.7).AppendImage(nil)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: BulkLoad image differs from the sort.SliceStable build (%d vs %d bytes)", tc.name, len(got), len(want))
		}
	}
}
