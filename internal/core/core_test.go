package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bpt"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wire"
)

// testWorld bundles a synthetic dataset, its index, a server, and ground
// truth helpers.
type testWorld struct {
	items []rtree.Item
	sizes map[rtree.ObjectID]int
	tree  *rtree.Tree
	srv   *server.Server
}

func newWorld(t *testing.T, seed int64, n int, form server.IndexForm) *testWorld {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	w := &testWorld{sizes: make(map[rtree.ObjectID]int)}
	for i := 0; i < n; i++ {
		id := rtree.ObjectID(i + 1)
		c := geom.Pt(r.Float64(), r.Float64())
		mbr := geom.RectFromCenter(c, r.Float64()*0.01, r.Float64()*0.01)
		w.items = append(w.items, rtree.Item{Obj: id, MBR: mbr})
		w.sizes[id] = 500 + r.Intn(2000)
	}
	w.tree = rtree.BulkLoad(rtree.Params{MaxEntries: 16}, w.items, 0.7)
	w.srv = server.New(w.tree, func(id rtree.ObjectID) int { return w.sizes[id] }, server.Config{Form: form})
	return w
}

func (w *testWorld) newClient(capacity int, policy Policy) *Client {
	cache := NewCache(capacity, policy, wire.DefaultSizeModel())
	cfg := ClientConfig{
		ID:        1,
		Root:      w.srv.RootRef(),
		FMRPeriod: 10,
	}
	transport := TransportFunc(func(req *wire.Request) (*wire.Response, error) {
		resp, _ := w.srv.Execute(req)
		return resp, nil
	})
	return NewClient(cfg, cache, transport)
}

func (w *testWorld) bruteRange(win geom.Rect) map[rtree.ObjectID]bool {
	out := make(map[rtree.ObjectID]bool)
	for _, it := range w.items {
		if it.MBR.Intersects(win) {
			out[it.Obj] = true
		}
	}
	return out
}

func (w *testWorld) bruteKNNDists(p geom.Point, k int) []float64 {
	ds := make([]float64, len(w.items))
	for i, it := range w.items {
		ds[i] = geom.MinDist(p, it.MBR)
	}
	sort.Float64s(ds)
	if k > len(ds) {
		k = len(ds)
	}
	return ds[:k]
}

func (w *testWorld) bruteJoin(win geom.Rect, dist float64) map[[2]rtree.ObjectID]bool {
	var in []rtree.Item
	for _, it := range w.items {
		if it.MBR.Intersects(win) {
			in = append(in, it)
		}
	}
	out := make(map[[2]rtree.ObjectID]bool)
	for i := 0; i < len(in); i++ {
		for j := i + 1; j < len(in); j++ {
			if geom.RectMinDist(in[i].MBR, in[j].MBR) <= dist {
				a, b := in[i].Obj, in[j].Obj
				if b < a {
					a, b = b, a
				}
				out[[2]rtree.ObjectID{a, b}] = true
			}
		}
	}
	return out
}

func (w *testWorld) mbrOf(id rtree.ObjectID) geom.Rect {
	return w.items[int(id)-1].MBR
}

// randomQuery draws a query of a random kind near a random location.
func randomQuery(r *rand.Rand) query.Query {
	p := geom.Pt(r.Float64(), r.Float64())
	switch r.Intn(3) {
	case 0:
		side := 0.02 + r.Float64()*0.08
		return query.NewRange(geom.RectFromCenter(p, side, side))
	case 1:
		return query.NewKNN(p, 1+r.Intn(8))
	default:
		win := geom.RectFromCenter(p, 0.1, 0.1)
		return query.NewJoin(win, 0.01)
	}
}

// checkQuery verifies a report against brute force.
func (w *testWorld) checkQuery(t *testing.T, q query.Query, rep Report, tag string) {
	t.Helper()
	switch q.Kind {
	case query.Range:
		want := w.bruteRange(q.Window)
		if len(rep.Results) != len(want) {
			t.Fatalf("%s range: got %d results, want %d", tag, len(rep.Results), len(want))
		}
		for _, id := range rep.Results {
			if !want[id] {
				t.Fatalf("%s range: unexpected result %d", tag, id)
			}
		}
	case query.KNN:
		wantD := w.bruteKNNDists(q.Center, q.K)
		if len(rep.Results) != len(wantD) {
			t.Fatalf("%s knn: got %d results, want %d", tag, len(rep.Results), len(wantD))
		}
		gotD := make([]float64, len(rep.Results))
		for i, id := range rep.Results {
			gotD[i] = geom.MinDist(q.Center, w.mbrOf(id))
		}
		sort.Float64s(gotD)
		for i := range wantD {
			if math.Abs(gotD[i]-wantD[i]) > 1e-12 {
				t.Fatalf("%s knn: dist[%d] = %v, want %v", tag, i, gotD[i], wantD[i])
			}
		}
	case query.Join:
		want := w.bruteJoin(q.JoinWindow, q.Dist)
		got := make(map[[2]rtree.ObjectID]bool)
		for _, p := range rep.Pairs {
			a, b := p[0], p[1]
			if b < a {
				a, b = b, a
			}
			key := [2]rtree.ObjectID{a, b}
			if got[key] {
				t.Fatalf("%s join: duplicate pair %v", tag, key)
			}
			got[key] = true
		}
		if len(got) != len(want) {
			t.Fatalf("%s join: got %d pairs, want %d", tag, len(got), len(want))
		}
		for key := range got {
			if !want[key] {
				t.Fatalf("%s join: unexpected pair %v", tag, key)
			}
		}
	}
}

// TestClientServerEquivalence is the central correctness property: for every
// index form and a mixed query stream, the proactive-caching pipeline must
// return exactly the same answers as direct evaluation, regardless of what
// is or is not cached.
func TestClientServerEquivalence(t *testing.T) {
	forms := map[string]server.IndexForm{
		"full":     server.FullForm,
		"compact":  server.CompactForm,
		"adaptive": server.AdaptiveForm,
	}
	for name, form := range forms {
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, 101, 800, form)
			cl := w.newClient(1<<20, GRD3)
			r := rand.New(rand.NewSource(202))
			for i := 0; i < 150; i++ {
				q := randomQuery(r)
				rep, err := cl.Query(q)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				w.checkQuery(t, q, rep, name)
				if i%25 == 0 {
					if err := cl.Cache().Validate(); err != nil {
						t.Fatalf("query %d: %v", i, err)
					}
				}
			}
		})
	}
}

// TestTinyCacheCorrectness forces constant eviction under every policy; the
// cache may thrash but answers must stay exact.
func TestTinyCacheCorrectness(t *testing.T) {
	for _, policy := range []Policy{GRD3, GRD2, LRU, MRU, FAR} {
		t.Run(policy.String(), func(t *testing.T) {
			w := newWorld(t, 303, 500, server.AdaptiveForm)
			cl := w.newClient(20_000, policy) // ~15 objects worth of space
			r := rand.New(rand.NewSource(404))
			for i := 0; i < 80; i++ {
				q := randomQuery(r)
				cl.Cache().SetPosition(geom.Pt(r.Float64(), r.Float64()))
				rep, err := cl.Query(q)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				w.checkQuery(t, q, rep, policy.String())
				if err := cl.Cache().Validate(); err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if cl.Cache().Used() > cl.cache.capacity {
					t.Fatalf("query %d: over capacity", i)
				}
			}
		})
	}
}

// TestRepeatQueryServedLocally: spatial locality is the whole point — the
// same query twice must hit the cache entirely the second time.
func TestRepeatQueryServedLocally(t *testing.T) {
	w := newWorld(t, 505, 800, server.AdaptiveForm)
	cl := w.newClient(1<<22, GRD3)
	q := query.NewRange(geom.RectFromCenter(geom.Pt(0.4, 0.6), 0.08, 0.08))

	first, err := cl.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.LocalOnly {
		t.Fatal("cold query cannot be local")
	}
	second, err := cl.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.LocalOnly {
		t.Error("repeat query was not served locally")
	}
	if second.RespTime != 0 {
		t.Errorf("local query response time = %v", second.RespTime)
	}
	if len(second.Results) != len(first.Results) {
		t.Errorf("repeat results %d != %d", len(second.Results), len(first.Results))
	}
	if second.HitRate() != 1 {
		t.Errorf("repeat hit rate = %v, want 1", second.HitRate())
	}
}

// TestCrossTypeReuse reproduces Example 1.2/1.3: a range query caches
// objects and index; a following kNN at the same spot reuses them so the
// remainder shrinks (or disappears).
func TestCrossTypeReuse(t *testing.T) {
	w := newWorld(t, 606, 1000, server.AdaptiveForm)
	cl := w.newClient(1<<22, GRD3)
	center := geom.Pt(0.5, 0.5)

	rangeRep, err := cl.Query(query.NewRange(geom.RectFromCenter(center, 0.2, 0.2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rangeRep.Results) < 3 {
		t.Skip("degenerate dataset region")
	}
	knnRep, err := cl.Query(query.NewKNN(center, 3))
	if err != nil {
		t.Fatal(err)
	}
	if knnRep.SavedBytes == 0 {
		t.Error("kNN reused nothing from the range query (semantic-cache behavior, not proactive)")
	}
	w.checkQuery(t, query.NewKNN(center, 3), knnRep, "cross")
}

// TestFalseMissAccounting: with a full-form index the false-miss rate must
// be (near) zero for repeated locality; with root-only knowledge it is high.
func TestFalseMissAccounting(t *testing.T) {
	w := newWorld(t, 707, 600, server.FullForm)
	cl := w.newClient(1<<22, GRD3)
	r := rand.New(rand.NewSource(808))
	center := geom.Pt(0.5, 0.5)
	var falseMiss, cached int
	for i := 0; i < 40; i++ {
		p := geom.Pt(center.X+r.Float64()*0.05, center.Y+r.Float64()*0.05)
		rep, err := cl.Query(query.NewKNN(p, 4))
		if err != nil {
			t.Fatal(err)
		}
		falseMiss += rep.FalseMissBytes
		cached += rep.SavedBytes + rep.FalseMissBytes
	}
	if cached == 0 {
		t.Fatal("no cached results at all")
	}
	fmr := float64(falseMiss) / float64(cached)
	if fmr > 0.2 {
		t.Errorf("full-form fmr = %.3f, want near zero", fmr)
	}
}

// TestReportInvariants: byte accounting must be internally consistent.
func TestReportInvariants(t *testing.T) {
	w := newWorld(t, 909, 700, server.AdaptiveForm)
	cl := w.newClient(200_000, GRD3)
	r := rand.New(rand.NewSource(1010))
	for i := 0; i < 100; i++ {
		q := randomQuery(r)
		rep, err := cl.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if rep.SavedBytes > rep.ResultBytes {
			t.Fatalf("saved %d > result %d", rep.SavedBytes, rep.ResultBytes)
		}
		if rep.SavedBytes+rep.FalseMissBytes > rep.ResultBytes {
			t.Fatalf("hitb numerator exceeds result bytes")
		}
		if hr := rep.HitRate(); hr < 0 || hr > 1 {
			t.Fatalf("hit rate %v out of range", hr)
		}
		if rep.LocalOnly && (rep.UplinkBytes != 0 || rep.DownlinkBytes != 0) {
			t.Fatal("local query with wire bytes")
		}
		if !rep.LocalOnly && rep.UplinkBytes == 0 {
			t.Fatal("remote query without uplink")
		}
		if rep.RespTime < 0 || rep.TotalTime < rep.RespTime-1e-9 {
			t.Fatalf("timeline inconsistent: resp %v total %v", rep.RespTime, rep.TotalTime)
		}
	}
}

// TestAdaptiveDReactsToFeedback: reported false-miss rates must move the
// server's per-client refinement level in the right direction.
func TestAdaptiveDReactsToFeedback(t *testing.T) {
	w := newWorld(t, 111, 300, server.AdaptiveForm)
	var st *server.Server = w.srv

	req := func(fmr float64) {
		r := &wire.Request{Client: 9, Q: query.NewKNN(geom.Pt(0.5, 0.5), 2), FMR: fmr, HasFMR: true}
		st.Execute(r)
	}
	req(0.10) // first report just records
	if d := st.ClientD(9); d != 0 {
		t.Fatalf("initial d = %d", d)
	}
	req(0.20) // +100% >> s: finer
	if d := st.ClientD(9); d != 1 {
		t.Fatalf("d after rise = %d, want 1", d)
	}
	req(0.05) // -75% << s: coarser
	if d := st.ClientD(9); d != 0 {
		t.Fatalf("d after drop = %d, want 0", d)
	}
	req(0.05) // within band: unchanged
	if d := st.ClientD(9); d != 0 {
		t.Fatalf("d after stable = %d, want 0", d)
	}
}

// TestGRD3EquivalentToGRD2 checks Theorem 5.5's premise: on identical
// forests with distinct probabilities both algorithms keep the same items.
func TestGRD3EquivalentToGRD2(t *testing.T) {
	r := rand.New(rand.NewSource(1212))
	for trial := 0; trial < 30; trial++ {
		a := buildRandomForest(r, GRD3)
		b := cloneForest(a, GRD2)

		a.evictToCapacity()
		b.evictToCapacity()

		if a.Len() != b.Len() {
			t.Fatalf("trial %d: GRD3 kept %d, GRD2 kept %d", trial, a.Len(), b.Len())
		}
		for _, it := range a.list {
			if _, ok := b.items[it.Key]; !ok {
				t.Errorf("trial %d: %v kept by GRD3 only", trial, it.Key)
			}
		}
	}
}

// buildRandomForest constructs a cache holding a random item forest with
// distinct access probabilities that respect Lemma 5.3 (descendants are no
// more probable than their ancestors — the premise under which GRD2 and
// GRD3 coincide) and a capacity that forces eviction.
func buildRandomForest(r *rand.Rand, policy Policy) *Cache {
	c := NewCache(0, policy, wire.DefaultSizeModel())
	c.querySeq = 1000
	n := 20 + r.Intn(30)
	var keys []ItemKey
	total := 0
	hits := 100_000 // strictly decreasing along creation order => along paths
	for i := 0; i < n; i++ {
		var key ItemKey
		var parent ItemKey
		if i > 0 && r.Intn(2) == 0 {
			parent = keys[r.Intn(len(keys))]
			// Only node items can be parents.
			if !parent.IsNode() {
				parent = ItemKey{}
			}
		}
		if r.Intn(2) == 0 {
			key = NodeKey(rtree.NodeID(i + 1))
		} else {
			key = ObjKey(rtree.ObjectID(i + 1))
		}
		hits -= 1 + r.Intn(5)
		it := &Item{
			Key:        key,
			Parent:     parent,
			Size:       100 + r.Intn(900),
			InsertedAt: 999, // age 1 for all: prob == Hits, distinct
			Hits:       hits,
			LastUsed:   uint64(900 + r.Intn(100)),
		}
		c.place(it)
		keys = append(keys, key)
		total += it.Size
	}
	c.capacity = total / 2
	return c
}

func cloneForest(src *Cache, policy Policy) *Cache {
	c := NewCache(src.capacity, policy, src.sizes)
	c.querySeq = src.querySeq
	c.used = src.used
	for _, it := range src.list {
		cp := *it
		cp.Refs = append([]query.Ref(nil), it.Refs...)
		cp.Codes = append([]bpt.Code(nil), it.Codes...)
		c.list = append(c.list, &cp)
		c.items[cp.Key] = &cp
	}
	return c
}
