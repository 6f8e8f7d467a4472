package rtree

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
)

// fingerprint captures everything a version must keep to itself: per-page
// identity, level, parentage, generation, and entry lists in order, plus the
// tree metadata.
type nodeFP struct {
	level, parent int
	gen           uint32
	entries       []Entry
}

func fingerprint(t *Tree) (map[NodeID]nodeFP, [4]int) {
	m := make(map[NodeID]nodeFP)
	t.Nodes(func(n *Node) bool {
		m[n.ID] = nodeFP{
			level:   n.Level,
			parent:  int(n.Parent),
			gen:     n.Gen,
			entries: append([]Entry(nil), n.Entries...),
		}
		return true
	})
	return m, [4]int{int(t.Root()), t.Height(), t.Len(), t.NodeCount()}
}

func assertTreesEqual(t *testing.T, want, got *Tree) {
	t.Helper()
	wm, wmeta := fingerprint(want)
	gm, gmeta := fingerprint(got)
	if wmeta != gmeta {
		t.Fatalf("metadata differs: want %v, got %v", wmeta, gmeta)
	}
	if len(wm) != len(gm) {
		t.Fatalf("live node count differs: want %d, got %d", len(wm), len(gm))
	}
	for id, wn := range wm {
		gn, ok := gm[id]
		if !ok {
			t.Fatalf("node %d missing", id)
		}
		if wn.level != gn.level || wn.parent != gn.parent || wn.gen != gn.gen {
			t.Fatalf("node %d header differs: want %+v, got %+v", id, wn, gn)
		}
		if len(wn.entries) != len(gn.entries) {
			t.Fatalf("node %d entry count differs: want %d, got %d", id, len(wn.entries), len(gn.entries))
		}
		for i := range wn.entries {
			if wn.entries[i] != gn.entries[i] {
				t.Fatalf("node %d entry %d differs: want %+v, got %+v", id, i, wn.entries[i], gn.entries[i])
			}
		}
	}
	if err := got.Validate(false); err != nil {
		t.Fatalf("tree invalid: %v", err)
	}
}

func randomItems(r *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Obj: ObjectID(i + 1),
			MBR: geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01),
		}
	}
	return items
}

func TestCloneDeepCopies(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	src := BulkLoad(Params{MaxEntries: 8}, randomItems(r, 500), 0.7)
	c := src.Clone()
	assertTreesEqual(t, src, c)

	// Mutating the clone must not leak into the source.
	before, beforeMeta := fingerprint(src)
	for i := 0; i < 50; i++ {
		c.Insert(ObjectID(10_000+i), geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01))
	}
	after, afterMeta := fingerprint(src)
	if beforeMeta != afterMeta || len(before) != len(after) {
		t.Fatal("mutating the clone changed the source tree")
	}
	for id, b := range before {
		a := after[id]
		if a.gen != b.gen || len(a.entries) != len(b.entries) {
			t.Fatalf("node %d of the source changed under clone mutation", id)
		}
		for i := range b.entries {
			if a.entries[i] != b.entries[i] {
				t.Fatalf("node %d entry %d of the source changed under clone mutation", id, i)
			}
		}
	}
}

// opStream generates a reproducible insert/delete/move workload over a live
// set. insertBias in [0,1] steers the population up or down.
type opStream struct {
	r    *rand.Rand
	live []Item
	next ObjectID
}

func (s *opStream) rect() geom.Rect {
	return geom.RectFromCenter(geom.Pt(s.r.Float64(), s.r.Float64()), 0.01, 0.01)
}

// step applies one random operation to every tree given.
func (s *opStream) step(t *testing.T, insertBias float64, trees ...*Tree) {
	t.Helper()
	switch {
	case len(s.live) == 0 || s.r.Float64() < insertBias:
		it := Item{Obj: s.next, MBR: s.rect()}
		s.next++
		s.live = append(s.live, it)
		for _, tr := range trees {
			tr.Insert(it.Obj, it.MBR)
		}
	default:
		i := s.r.Intn(len(s.live))
		it := s.live[i]
		move := s.r.Intn(3) == 0
		to := s.rect()
		for _, tr := range trees {
			if !tr.Delete(it.Obj, it.MBR) {
				t.Fatalf("delete of live object %d failed", it.Obj)
			}
			if move {
				tr.Insert(it.Obj, to)
			}
		}
		if move {
			s.live[i].MBR = to
		} else {
			s.live[i] = s.live[len(s.live)-1]
			s.live = s.live[:len(s.live)-1]
		}
	}
}

// TestVersionsAreImmutable is the copy-on-write contract. A chain of
// Clone-then-mutate versions runs beside a reference tree mutated in place
// by the same operations, while goroutines keep reading earlier versions:
// (a) no retained version ever changes, (b) every version equals the
// reference field for field — same NodeIDs, Gens, touch order, image bytes —
// and (c) a version costs pages in proportion to what it wrote (the "cost"
// subtest, on an index large enough for the difference to show).
func TestVersionsAreImmutable(t *testing.T) {
	const versions = 240
	p := Params{MaxEntries: 6}
	s := &opStream{r: rand.New(rand.NewSource(32)), next: 1}
	ref, cur := New(p), New(p)

	var refTouched, curTouched []NodeID
	ref.SetTouchHook(func(id NodeID) { refTouched = append(refTouched, id) })

	type retained struct {
		tree *Tree
		fp   map[NodeID]nodeFP
		meta [4]int
	}
	check := func(v retained) {
		fp, meta := fingerprint(v.tree)
		if meta != v.meta || len(fp) != len(v.fp) {
			t.Errorf("retained version changed: meta %v -> %v, %d -> %d nodes", v.meta, meta, len(v.fp), len(fp))
			return
		}
		for id, want := range v.fp {
			got := fp[id]
			if got.level != want.level || got.parent != want.parent || got.gen != want.gen ||
				!slices.Equal(got.entries, want.entries) {
				t.Errorf("node %d of a retained version changed", id)
				return
			}
		}
		if err := v.tree.Validate(false); err != nil {
			t.Errorf("retained version invalid: %v", err)
		}
	}

	var mu sync.Mutex
	var kept []retained
	keep := func(tr *Tree) {
		fp, meta := fingerprint(tr)
		mu.Lock()
		kept = append(kept, retained{tr, fp, meta})
		mu.Unlock()
	}
	keep(cur) // version 0, so the readers never find the list empty
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				v := kept[i%len(kept)]
				mu.Unlock()
				check(v)
			}
		}(g)
	}

	grew, shrank, freed := false, false, false
	for v := 1; v <= versions; v++ {
		// Grow past two root splits, shrink back to a leaf root, grow again.
		bias, maxOps := 0.85, 6
		if v > versions/3 && v <= 2*versions/3 {
			bias, maxOps = 0.05, 12
		}
		prev := cur
		cur = prev.Clone()
		cur.SetTouchHook(func(id NodeID) { curTouched = append(curTouched, id) })
		refTouched, curTouched = refTouched[:0], curTouched[:0]
		for op, n := 0, 1+s.r.Intn(maxOps); op < n; op++ {
			s.step(t, bias, ref, cur)
		}
		cur.SetTouchHook(nil)

		grew = grew || cur.Height() > prev.Height()
		shrank = shrank || cur.Height() < prev.Height()
		freed = freed || int(cur.NodeSpan())-1 > cur.NodeCount()
		if !slices.Equal(refTouched, curTouched) {
			t.Fatalf("version %d: touch order %v, in-place reference %v", v, curTouched, refTouched)
		}
		assertTreesEqual(t, ref, cur)
		if cur.NodeSpan() != ref.NodeSpan() {
			t.Fatalf("version %d: span %d, in-place reference %d", v, cur.NodeSpan(), ref.NodeSpan())
		}
		if v%8 == 0 {
			keep(cur)
		}
	}
	close(stop)
	wg.Wait()
	if !grew || !shrank || !freed {
		t.Fatalf("workload too tame: root grew=%v shrank=%v, pages freed=%v", grew, shrank, freed)
	}
	if !bytes.Equal(cur.AppendImage(nil), ref.AppendImage(nil)) {
		t.Fatal("newest version's image differs from the in-place reference's")
	}
	for _, v := range kept {
		check(v)
	}
	t.Run("cost", cloneCopiesTouchedPagesOnly)
}

// cloneCopiesTouchedPagesOnly bounds what a version costs: a Clone plus k
// single-object moves copies O(k * height) pages, not the index.
func cloneCopiesTouchedPagesOnly(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	items := randomItems(r, 20_000)
	base := BulkLoad(Params{MaxEntries: 16}, items, 0.7)
	const k = 5
	next := base.Clone()
	for _, it := range items[:k] {
		if !next.Delete(it.Obj, it.MBR) {
			t.Fatalf("delete of object %d failed", it.Obj)
		}
		next.Insert(it.Obj, geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01))
	}
	copied := 0
	for id, n := range base.nodes {
		if n != nil && next.nodes[id] != n {
			copied++
		}
	}
	// A move writes at most the delete path and the insert path; the factor
	// two leaves room for an overflow's reinsertions.
	if limit := 2 * k * 2 * base.Height(); copied == 0 || copied > limit {
		t.Errorf("%d moves copied or freed %d of %d pages, want 1..%d", k, copied, base.NodeCount(), limit)
	}
	assertTreesEqual(t, BulkLoad(Params{MaxEntries: 16}, items, 0.7), base)
}
