package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// pagesEqual fails unless two pages hold identical position data.
func pagesEqual(t *testing.T, id int, a, b *Page) {
	t.Helper()
	if a.gen != b.gen || a.Len() != b.Len() {
		t.Fatalf("node %d: gen %d/%d, %d/%d positions", id, a.gen, b.gen, a.Len(), b.Len())
	}
	for i := range a.rects {
		if a.rects[i] != b.rects[i] || a.codes[i] != b.codes[i] ||
			a.right[i] != b.right[i] || a.parent[i] != b.parent[i] ||
			a.child[i] != b.child[i] || a.obj[i] != b.obj[i] {
			t.Fatalf("node %d: position %d differs between pages", id, i)
		}
	}
}

// packedEqual reports whether two tables are identical slot by slot, page
// by page.
func packedEqual(t *testing.T, a, b *Packed) {
	t.Helper()
	if len(a.slots) != len(b.slots) {
		t.Fatalf("table shape differs: %d/%d slots", len(a.slots), len(b.slots))
	}
	for id := range a.slots {
		pa, pb := a.slots[id].Load(), b.slots[id].Load()
		if (pa == nil) != (pb == nil) {
			t.Fatalf("node %d: cached in one table only", id)
		}
		if pa != nil {
			pagesEqual(t, id, pa, pb)
		}
	}
}

// TestRepackMatchesPack pins the incremental repack to the from-scratch
// build: after any mix of inserts, deletes, and moves, Repack(t, prev) must
// produce exactly the table Pack(t) does, sharing prev's page for every node
// the mutations left alone and never one for a node they touched.
func TestRepackMatchesPack(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	items := randItems(r, 1500)
	tr := buildDynamic(t, items, Params{MaxEntries: 16})
	prev := Pack(tr)

	next := ObjectID(len(items) + 1)
	for round := 0; round < 5; round++ {
		// Mutate a slice of the tree so part of it is stale against prev.
		for i := 0; i < 120; i++ {
			j := r.Intn(len(items))
			switch r.Intn(3) {
			case 0: // move
				to := items[j].MBR.Union(geom.RectFromCenter(
					geom.Pt(r.Float64(), r.Float64()), 0.005, 0.005))
				if !tr.Delete(items[j].Obj, items[j].MBR) {
					t.Fatalf("round %d: delete %d failed", round, items[j].Obj)
				}
				tr.Insert(items[j].Obj, to)
				items[j].MBR = to
			case 1: // churn: delete then re-insert under a fresh id
				if !tr.Delete(items[j].Obj, items[j].MBR) {
					t.Fatalf("round %d: delete %d failed", round, items[j].Obj)
				}
				items[j].Obj = next
				next++
				tr.Insert(items[j].Obj, items[j].MBR)
			default: // grow
				it := Item{Obj: next, MBR: geom.RectFromCenter(
					geom.Pt(r.Float64(), r.Float64()), 0.003, 0.003)}
				next++
				tr.Insert(it.Obj, it.MBR)
				items = append(items, it)
			}
		}
		inc := Repack(tr, prev)
		full := Pack(tr)
		packedEqual(t, inc, full)
		shared := 0
		tr.Nodes(func(n *Node) bool {
			if was := prev.cached(n); was != nil {
				shared++
				if inc.slots[n.ID].Load() != was {
					t.Fatalf("round %d: unchanged node %d was rebuilt", round, n.ID)
				}
			}
			return true
		})
		if shared == 0 || shared == tr.NodeCount() {
			t.Fatalf("round %d: %d of %d pages shared, want a strict part", round, shared, tr.NodeCount())
		}
		prev = inc
	}
}

// TestRepackInternsCodes checks that the shared code table actually dedups:
// the same code at different positions must be the same string header, not a
// fresh allocation per position.
func TestRepackInternsCodes(t *testing.T) {
	if c := internCode([]byte("0110")); c != "0110" {
		t.Fatalf("internCode(0110) = %q", c)
	}
	// Canonical storage: interned lookups serve the table entries themselves.
	if internCode([]byte("1")) != internedCodes[2] {
		t.Fatal("code 1 not served from the intern table")
	}
	deep := make([]byte, internDepth+3)
	for i := range deep {
		deep[i] = '0' + byte(i%2)
	}
	if got := internCode(deep); got != string(deep) {
		t.Fatalf("deep code fallback: got %q want %q", got, deep)
	}
}

// TestPageSlotContract pins what a slot promises readers pinned to different
// snapshots of one tree: the warm path returns the cached page, the newest
// generation wins the slot, a reader of older content builds its page
// without publishing it, an id past the table's span is served uncached, and
// a retired slot is never filled again.
func TestPageSlotContract(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	items := randItems(r, 400)
	old := buildDynamic(t, items, Params{MaxEntries: 8})
	pk := Pack(old)

	// cur is a later version: one leaf changed, and splits issued new ids.
	cur := old.Clone()
	next := ObjectID(len(items) + 1)
	for int(cur.NodeSpan()) == len(pk.slots) {
		cur.Insert(next, geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.002, 0.002))
		next++
	}
	var stale *Node // a node whose content differs between old and cur
	cur.Nodes(func(n *Node) bool {
		if o, ok := old.Node(n.ID); ok && o.Gen != n.Gen {
			stale = n
		}
		return stale == nil
	})
	oldNode, _ := old.Node(stale.ID)
	cached := pk.slots[stale.ID].Load()

	if got := pk.Page(oldNode); got != cached {
		t.Fatal("warm lookup did not return the cached page")
	}
	fresh := pk.Page(stale)
	if fresh == cached || fresh.gen != stale.Gen || pk.slots[stale.ID].Load() != fresh {
		t.Fatal("a build for newer content was not published")
	}
	if got := pk.Page(oldNode); got == fresh || got.gen != oldNode.Gen {
		t.Fatal("a reader of older content was handed the newer page")
	}
	if pk.slots[stale.ID].Load() != fresh {
		t.Fatal("a build for older content displaced the newer page")
	}

	newest, _ := cur.Node(cur.NodeSpan() - 1)
	if pg := pk.Page(newest); pg.Len() != 2*len(newest.Entries)-1 {
		t.Fatalf("page past the span has %d positions for %d entries", pg.Len(), len(newest.Entries))
	}
	grown := pk.Grow(cur.NodeSpan())
	if len(pk.slots) >= len(grown.slots) || grown.slots[stale.ID].Load() != fresh {
		t.Fatal("Grow did not carry the pages into a larger table")
	}
	if grown.Grow(cur.NodeSpan()) != grown {
		t.Fatal("Grow copied a table that already covers the span")
	}

	before := grown.NodeCount()
	grown.Retire(stale.ID)
	if pg := grown.Page(stale); pg.gen != stale.Gen || pg.Len() != 2*len(stale.Entries)-1 {
		t.Fatal("a retired slot did not serve a built page")
	}
	if grown.NodeCount() != before-1 {
		t.Fatalf("retired slot was refilled: %d cached pages, want %d", grown.NodeCount(), before-1)
	}
}
