package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wire"
)

// updWorld is a mutable world: items tracks server-side ground truth as
// updates are applied.
type updWorld struct {
	live  map[rtree.ObjectID]geom.Rect
	sizes map[rtree.ObjectID]int
	srv   *server.Server
	next  rtree.ObjectID
}

func newUpdWorld(t *testing.T, seed int64, n int) *updWorld {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	w := &updWorld{
		live:  make(map[rtree.ObjectID]geom.Rect),
		sizes: make(map[rtree.ObjectID]int),
	}
	items := make([]rtree.Item, n)
	for i := 0; i < n; i++ {
		id := rtree.ObjectID(i + 1)
		mbr := geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01)
		items[i] = rtree.Item{Obj: id, MBR: mbr}
		w.live[id] = mbr
		w.sizes[id] = 1000
	}
	w.next = rtree.ObjectID(n + 1)
	tree := rtree.BulkLoad(rtree.Params{MaxEntries: 8}, items, 0.7)
	w.srv = server.New(tree, func(id rtree.ObjectID) int { return w.sizes[id] }, server.Config{})
	return w
}

func (w *updWorld) client(capacity int) *Client {
	cache := NewCache(capacity, GRD3, wire.DefaultSizeModel())
	return NewClient(ClientConfig{ID: 1, Root: w.srv.RootRef(), FMRPeriod: 10},
		cache, TransportFunc(func(req *wire.Request) (*wire.Response, error) {
			resp, _ := w.srv.Execute(req)
			return resp, nil
		}))
}

func (w *updWorld) insert(r *rand.Rand) {
	id := w.next
	w.next++
	mbr := geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01)
	w.srv.InsertObject(id, mbr, 1000)
	w.live[id] = mbr
	w.sizes[id] = 1000
}

// pickLive deterministically selects a live object: the k-th smallest id.
func (w *updWorld) pickLive(r *rand.Rand) (rtree.ObjectID, bool) {
	if len(w.live) == 0 {
		return 0, false
	}
	ids := make([]rtree.ObjectID, 0, len(w.live))
	for id := range w.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[r.Intn(len(ids))], true
}

func (w *updWorld) deleteRandom(r *rand.Rand) {
	id, ok := w.pickLive(r)
	if !ok {
		return
	}
	w.srv.DeleteObject(id, w.live[id])
	delete(w.live, id)
}

func (w *updWorld) moveRandom(r *rand.Rand) {
	id, ok := w.pickLive(r)
	if !ok {
		return
	}
	to := geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01)
	w.srv.MoveObject(id, w.live[id], to)
	w.live[id] = to
}

func (w *updWorld) bruteRange(win geom.Rect) map[rtree.ObjectID]bool {
	out := make(map[rtree.ObjectID]bool)
	for id, mbr := range w.live {
		if mbr.Intersects(win) {
			out[id] = true
		}
	}
	return out
}

// TestUpdatesInvalidationCorrectness is the end-to-end property of the
// update extension: with arbitrary inserts/deletes/moves interleaved between
// queries, every query that reaches the server returns current answers.
func TestUpdatesInvalidationCorrectness(t *testing.T) {
	w := newUpdWorld(t, 81, 400)
	cl := w.client(1 << 20)
	r := rand.New(rand.NewSource(82))

	for i := 0; i < 200; i++ {
		// Mutate the server between queries.
		switch r.Intn(4) {
		case 0:
			w.insert(r)
		case 1:
			w.deleteRandom(r)
		case 2:
			w.moveRandom(r)
		}

		win := geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.15, 0.15)
		rep, err := cl.Query(query.NewRange(win))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if rep.LocalOnly {
			// Local answers may be stale between contacts by design; skip
			// ground-truth comparison but force a sync so staleness cannot
			// compound unboundedly in this test.
			if _, err := cl.Sync(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want := w.bruteRange(win)
		got := make(map[rtree.ObjectID]bool)
		for _, id := range rep.Results {
			got[id] = true
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d results, want %d (retries=%d)", i, len(got), len(want), rep.Retries)
		}
		for id := range got {
			if !want[id] {
				t.Fatalf("query %d: ghost result %d", i, id)
			}
		}
		if err := cl.Cache().Validate(); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

// TestSyncDropsStaleItems: a client that cached an area must lose exactly the
// updated items on its next heartbeat.
func TestSyncDropsStaleItems(t *testing.T) {
	w := newUpdWorld(t, 83, 300)
	cl := w.client(1 << 20)

	win := geom.R(0.2, 0.2, 0.8, 0.8)
	if _, err := cl.Query(query.NewRange(win)); err != nil {
		t.Fatal(err)
	}
	if cl.Cache().Len() == 0 {
		t.Fatal("nothing cached")
	}

	// Delete an object the client certainly cached.
	var victim rtree.ObjectID
	for id, mbr := range w.live {
		if mbr.Intersects(win) && cl.Cache().HasObject(id) {
			victim = id
			w.srv.DeleteObject(id, mbr)
			delete(w.live, id)
			break
		}
	}
	if victim == 0 {
		t.Skip("no cached object in window")
	}

	dropped, err := cl.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Error("sync dropped nothing despite a deletion")
	}
	if cl.Cache().HasObject(victim) {
		t.Error("deleted object still cached after sync")
	}
	if cl.Epoch() != w.srv.Epoch() {
		t.Errorf("client epoch %d, server %d", cl.Epoch(), w.srv.Epoch())
	}
	if err := cl.Cache().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleRetryHappens: a query whose local confirmation used items
// invalidated by a concurrent update must be retried and corrected.
func TestStaleRetryHappens(t *testing.T) {
	w := newUpdWorld(t, 84, 300)
	cl := w.client(1 << 20)
	r := rand.New(rand.NewSource(85))

	// Warm a window, then move objects inside it without telling the client.
	win := geom.R(0.4, 0.4, 0.6, 0.6)
	if _, err := cl.Query(query.NewRange(win)); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for id, mbr := range w.live {
		if mbr.Intersects(win) && cl.Cache().HasObject(id) {
			to := geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01)
			w.srv.MoveObject(id, mbr, to)
			w.live[id] = to
			moved++
			if moved == 3 {
				break
			}
		}
	}
	if moved == 0 {
		t.Skip("nothing to move")
	}

	// A wider query: part local (stale), part remainder -> server detects.
	wide := geom.R(0.3, 0.3, 0.7, 0.7)
	rep, err := cl.Query(query.NewRange(wide))
	if err != nil {
		t.Fatal(err)
	}
	want := w.bruteRange(wide)
	got := map[rtree.ObjectID]bool{}
	for _, id := range rep.Results {
		got[id] = true
	}
	if len(got) != len(want) {
		t.Fatalf("got %d, want %d (retries=%d, invalidated=%d)", len(got), len(want), rep.Retries, rep.Invalidated)
	}
	if rep.Invalidated == 0 {
		t.Error("no invalidations recorded despite moves")
	}
}

// TestFlushAllOnLogHorizon: a client far behind the update log gets a flush.
func TestFlushAllOnLogHorizon(t *testing.T) {
	r := rand.New(rand.NewSource(86))
	w := newUpdWorldWithLimit(t, 87, 200, 8)
	cl := w.client(1 << 20)

	if _, err := cl.Query(query.NewRange(geom.R(0.2, 0.2, 0.8, 0.8))); err != nil {
		t.Fatal(err)
	}
	if cl.Cache().Len() == 0 {
		t.Fatal("nothing cached")
	}
	// Blow past the log limit.
	for i := 0; i < 30; i++ {
		w.insert(r)
	}
	if _, err := cl.Sync(); err != nil {
		t.Fatal(err)
	}
	if cl.Cache().Len() != 0 {
		t.Errorf("cache not flushed after log horizon: %d items", cl.Cache().Len())
	}
}

func newUpdWorldWithLimit(t *testing.T, seed int64, n, limit int) *updWorld {
	t.Helper()
	w := newUpdWorld(t, seed, n)
	// Rebuild the server with a tiny update log.
	r := rand.New(rand.NewSource(seed))
	items := make([]rtree.Item, 0, len(w.live))
	for id, mbr := range w.live {
		items = append(items, rtree.Item{Obj: id, MBR: mbr})
	}
	_ = r
	tree := rtree.BulkLoad(rtree.Params{MaxEntries: 8}, items, 0.7)
	w.srv = server.New(tree, func(id rtree.ObjectID) int { return w.sizes[id] }, server.Config{UpdateLogLimit: limit})
	return w
}

// TestInvalidateCascades: invalidating a node drops its cached descendants.
func TestInvalidateCascades(t *testing.T) {
	w := newUpdWorld(t, 88, 300)
	cl := w.client(1 << 20)
	if _, err := cl.Query(query.NewRange(geom.R(0.3, 0.3, 0.7, 0.7))); err != nil {
		t.Fatal(err)
	}
	cache := cl.Cache()
	// Find a cached node item with cached children.
	var target rtree.NodeID
	for _, it := range cache.list {
		if it.Key.IsNode() && it.CachedChildren > 0 {
			target = it.Key.Node
			break
		}
	}
	if target == 0 {
		t.Skip("no parent item cached")
	}
	before := cache.Len()
	removed, _ := cache.Invalidate([]rtree.NodeID{target}, nil)
	if removed < 2 {
		t.Errorf("cascade removed %d items, want >= 2", removed)
	}
	if cache.Len() != before-removed {
		t.Error("length bookkeeping broken")
	}
	if err := cache.Validate(); err != nil {
		t.Fatal(err)
	}
}
