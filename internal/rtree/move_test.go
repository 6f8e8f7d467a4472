package rtree_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// moveStreamHash is treeHash after applyMoveStream on the 20 000-object NE
// tree, recorded before chooseSubtree's overlap scan was bounded. A change
// that moves it changes which leaf some insert chose.
const moveStreamHash = 0x345af68894097ecc

// jitter moves r by up to d along each axis, clipped to the unit square.
func jitter(rng *rand.Rand, r geom.Rect, d float64) geom.Rect {
	dx, dy := (2*rng.Float64()-1)*d, (2*rng.Float64()-1)*d
	dx = max(-r.MinX, min(dx, 1-r.MaxX))
	dy = max(-r.MinY, min(dy, 1-r.MaxY))
	return geom.R(r.MinX+dx, r.MinY+dy, r.MaxX+dx, r.MaxY+dy)
}

// applyMoveStream applies ops seeded operations to t: 80 % moves (mostly
// short, one in eight a long jump), 10 % inserts of new objects, 10 %
// deletes. live holds every object's current rectangle.
func applyMoveStream(tb testing.TB, t *rtree.Tree, live []rtree.Item, ops int, seed int64) []rtree.Item {
	rng := rand.New(rand.NewSource(seed))
	next := rtree.ObjectID(len(live) + 1)
	for op := 0; op < ops; op++ {
		i := rng.Intn(len(live))
		switch k := rng.Intn(10); {
		case k < 8:
			d := 0.002
			if rng.Intn(8) == 0 {
				d = 0.2
			}
			to := jitter(rng, live[i].MBR, d)
			if !t.Delete(live[i].Obj, live[i].MBR) {
				tb.Fatalf("op %d: object %d not found at %v", op, live[i].Obj, live[i].MBR)
			}
			t.Insert(live[i].Obj, to)
			live[i].MBR = to
		case k == 8:
			to := jitter(rng, live[i].MBR, 0.05)
			t.Insert(next, to)
			live = append(live, rtree.Item{Obj: next, MBR: to})
			next++
		default:
			if !t.Delete(live[i].Obj, live[i].MBR) {
				tb.Fatalf("op %d: object %d not found at %v", op, live[i].Obj, live[i].MBR)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return live
}

// treeHash digests the tree's shape: root, height, size and every live
// node's id, level, parent and entries, in NodeID order.
func treeHash(t *rtree.Tree) uint64 {
	h := fnv.New64a()
	var b []byte
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u64(uint64(t.Root()))
	u64(uint64(t.Height()))
	u64(uint64(t.Len()))
	t.Nodes(func(n *rtree.Node) bool {
		u64(uint64(n.ID))
		u64(uint64(n.Level))
		u64(uint64(n.Parent))
		u64(uint64(len(n.Entries)))
		for _, e := range n.Entries {
			for _, c := range [4]float64{e.MBR.MinX, e.MBR.MinY, e.MBR.MaxX, e.MBR.MaxY} {
				u64(math.Float64bits(c))
			}
			u64(uint64(e.Child))
			u64(uint64(e.Obj))
		}
		h.Write(b)
		b = b[:0]
		return true
	})
	h.Write(b)
	return h.Sum64()
}

// TestMoveStreamTreeUnchanged pins the tree a stream of moves, inserts and
// deletes leaves behind: every leaf choice, reinsert and split must be the
// one the full R* overlap scan made.
func TestMoveStreamTreeUnchanged(t *testing.T) {
	live := dataset.GenerateNE(dataset.Params{N: 20_000, Seed: 41}).Items()
	tr := rtree.BulkLoad(rtree.DefaultParams(), live, 0.7)
	live = applyMoveStream(t, tr, live, 20_000, 42)
	if err := tr.Validate(false); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
	}
	if got := treeHash(tr); got != moveStreamHash {
		t.Fatalf("tree hash %#x, want %#x", got, uint64(moveStreamHash))
	}
}

// BenchmarkTreeMove is one object's move, Delete then Insert, on a
// 100 000-object NE tree. in-leaf alternates an object between its
// rectangle and that rectangle shrunk about its center, where the rest of
// its leaf still covers both; cross-leaf alternates it between its own
// place and another object's, far away.
func BenchmarkTreeMove(b *testing.B) {
	items := dataset.GenerateNE(dataset.Params{N: 100_000, Seed: 43}).Items()
	for _, bc := range []struct {
		name  string
		cands func(*rtree.Tree, *rand.Rand) [][2]rtree.Item
	}{
		{"in-leaf", inLeafMoves},
		{"cross-leaf", crossLeafMoves},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr := rtree.BulkLoad(rtree.DefaultParams(), items, 0.7)
			moves := bc.cands(tr, rand.New(rand.NewSource(44)))
			at := make([]int, len(moves)) // which end of its move each object is at
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(moves)
				from, to := moves[k][at[k]], moves[k][1-at[k]]
				if !tr.Delete(from.Obj, from.MBR) {
					b.Fatalf("object %d not found at %v", from.Obj, from.MBR)
				}
				tr.Insert(to.Obj, to.MBR)
				at[k] = 1 - at[k]
			}
		})
	}
}

// inLeafMoves pairs each object whose leaf's other entries cover its
// rectangle with that rectangle shrunk to half its size about its center.
func inLeafMoves(tr *rtree.Tree, _ *rand.Rand) [][2]rtree.Item {
	var out [][2]rtree.Item
	tr.Nodes(func(n *rtree.Node) bool {
		if !n.Leaf() || len(n.Entries) < 2 {
			return true
		}
		es := n.Entries
		suffix := make([]geom.Rect, len(es)+1)
		suffix[len(es)-1] = es[len(es)-1].MBR
		for i := len(es) - 2; i >= 0; i-- {
			suffix[i] = suffix[i+1].Union(es[i].MBR)
		}
		var prefix geom.Rect
		for i, e := range es {
			var rest geom.Rect
			switch {
			case i == 0:
				rest = suffix[1]
			case i == len(es)-1:
				rest = prefix
			default:
				rest = prefix.Union(suffix[i+1])
			}
			if rest.Contains(e.MBR) && len(out) < 4096 {
				c := e.MBR.Center()
				shrunk := geom.RectFromCenter(c, e.MBR.Width()/2, e.MBR.Height()/2)
				out = append(out, [2]rtree.Item{{Obj: e.Obj, MBR: e.MBR}, {Obj: e.Obj, MBR: shrunk}})
			}
			if i == 0 {
				prefix = e.MBR
			} else {
				prefix = prefix.Union(e.MBR)
			}
		}
		return true
	})
	return out
}

// crossLeafMoves pairs 4 096 distinct random objects each with its rectangle moved
// onto another random object's center.
func crossLeafMoves(tr *rtree.Tree, rng *rand.Rand) [][2]rtree.Item {
	var leaves []rtree.Entry
	tr.Nodes(func(n *rtree.Node) bool {
		if n.Leaf() {
			leaves = append(leaves, n.Entries...)
		}
		return true
	})
	out := make([][2]rtree.Item, 4096)
	for i, j := range rng.Perm(len(leaves))[:len(out)] {
		e, far := leaves[j], leaves[rng.Intn(len(leaves))]
		to := geom.RectFromCenter(far.MBR.Center(), e.MBR.Width(), e.MBR.Height())
		out[i] = [2]rtree.Item{{Obj: e.Obj, MBR: e.MBR}, {Obj: e.Obj, MBR: to}}
	}
	return out
}
