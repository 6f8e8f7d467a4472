package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wire"
)

// Client-level equivalence: a real proactive-caching client — cache cuts,
// remainder handover, deferred objects, epoch tracking — run against the
// cluster must report the same query results as an identical client run
// against a single-node server, across warm caches and a live update
// stream. This is the strongest protocol test: every remainder query hands
// the router virtual node references from the client's own cache.

func newTestClient(t *testing.T, tr wire.Transport, id wire.ClientID) *core.Client {
	t.Helper()
	cat, err := tr.RoundTrip(&wire.Request{Client: id, Catalog: true})
	if err != nil {
		t.Fatalf("catalog: %v", err)
	}
	sizes := wire.DefaultSizeModel()
	return core.NewClient(core.ClientConfig{
		ID:        id,
		Root:      query.NodeRef(cat.RootID, cat.RootMBR),
		Sizes:     sizes,
		Channel:   wire.DefaultChannel(),
		FMRPeriod: 50,
	}, core.NewCache(1<<20, core.GRD3, sizes), tr)
}

func singleTransport(sh *server.Server) wire.Transport {
	return wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
		if len(req.Updates) > 0 {
			return sh.ExecuteUpdates(req), nil
		}
		resp, _ := sh.Execute(req)
		return resp, nil
	})
}

func sortedIDs(ids []rtree.ObjectID) []rtree.ObjectID {
	out := append([]rtree.ObjectID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestClientOverClusterMatchesSingleNode(t *testing.T) {
	nObj := 2500
	if testing.Short() {
		nObj = 800
	}
	objs := genObjects(nObj, 5)
	single, router, cleanup := buildBoth(t, objs, 4)
	defer cleanup()

	clSingle := newTestClient(t, singleTransport(single), 7)
	clCluster := newTestClient(t, router, 7)

	rng := rand.New(rand.NewSource(123))
	upd := newUpdateStream(55, objs)

	// A hotspot that drifts: queries revisit warm regions (cache hits and
	// partial hits with remainder handover) and wander into cold ones.
	hot := geom.Pt(0.5, 0.5)
	for step := 0; step < 60; step++ {
		if step%10 == 9 {
			ops := upd.batch(30)
			single.ExecuteUpdates(&wire.Request{Client: 900, Updates: ops})
			if _, err := router.RoundTrip(&wire.Request{Client: 900, Updates: ops}); err != nil {
				t.Fatalf("step %d: cluster updates: %v", step, err)
			}
		}
		hot = geom.Pt(
			clamp01(hot.X+(rng.Float64()-0.5)*0.15),
			clamp01(hot.Y+(rng.Float64()-0.5)*0.15),
		)
		var q query.Query
		switch step % 3 {
		case 0:
			q = query.NewRange(geom.RectFromCenter(hot, 0.05, 0.05))
		case 1:
			q = query.NewKNN(hot, 6)
		default:
			q = query.NewJoin(geom.RectFromCenter(hot, 0.12, 0.12), 0.004)
		}
		tag := fmt.Sprintf("step %d (%s)", step, q.Kind)

		repS, err := clSingle.Query(q)
		if err != nil {
			t.Fatalf("%s: single: %v", tag, err)
		}
		repC, err := clCluster.Query(q)
		if err != nil {
			t.Fatalf("%s: cluster: %v", tag, err)
		}

		wantIDs, gotIDs := sortedIDs(repS.Results), sortedIDs(repC.Results)
		if len(wantIDs) != len(gotIDs) {
			t.Fatalf("%s: %d results, want %d\n got %v\nwant %v", tag, len(gotIDs), len(wantIDs), gotIDs, wantIDs)
		}
		if q.Kind != query.KNN {
			// kNN distance ties may legitimately pick different ids; exact
			// sets are required for the other kinds.
			for i := range wantIDs {
				if wantIDs[i] != gotIDs[i] {
					t.Fatalf("%s: result %d = %d, want %d", tag, i, gotIDs[i], wantIDs[i])
				}
			}
		}
		if q.Kind == query.Join {
			wp := normClientPairs(repS.Pairs)
			gp := normClientPairs(repC.Pairs)
			if len(wp) != len(gp) {
				t.Fatalf("%s: %d pairs, want %d", tag, len(gp), len(wp))
			}
			for i := range wp {
				if wp[i] != gp[i] {
					t.Fatalf("%s: pair %d = %v, want %v", tag, i, gp[i], wp[i])
				}
			}
		}
	}

	// Sync must pull cluster-wide invalidations without a query.
	ops := upd.batch(20)
	single.ExecuteUpdates(&wire.Request{Client: 900, Updates: ops})
	if _, err := router.RoundTrip(&wire.Request{Client: 900, Updates: ops}); err != nil {
		t.Fatal(err)
	}
	if _, err := clCluster.Sync(); err != nil {
		t.Fatalf("cluster sync: %v", err)
	}
	if _, err := clSingle.Sync(); err != nil {
		t.Fatalf("single sync: %v", err)
	}
	q := query.NewRange(geom.RectFromCenter(hot, 0.08, 0.08))
	repS, err := clSingle.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	repC, err := clCluster.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	w, g := sortedIDs(repS.Results), sortedIDs(repC.Results)
	if len(w) != len(g) {
		t.Fatalf("post-sync: %d results, want %d", len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("post-sync: result %d = %d, want %d", i, g[i], w[i])
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0.05 {
		return 0.05
	}
	if v > 0.95 {
		return 0.95
	}
	return v
}

func normClientPairs(pairs [][2]rtree.ObjectID) [][2]rtree.ObjectID {
	out := make([][2]rtree.ObjectID, 0, len(pairs))
	for _, p := range pairs {
		if p[1] < p[0] {
			p[0], p[1] = p[1], p[0]
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// TestClusterRootSplitInvalidatesVirtualRoot drives one shard's root page
// through a split and checks the router invalidates the synthesized
// virtual root inside the client's epoch window, so cached virtual-root
// cuts can never silently hide the new sibling subtree.
func TestClusterRootSplitInvalidatesVirtualRoot(t *testing.T) {
	objs := genObjects(600, 9)
	_, router, cleanup := buildBoth(t, objs, 2)
	defer cleanup()

	// Establish a client epoch baseline with one query.
	resp, err := router.RoundTrip(&wire.Request{Client: 3, Q: query.NewRange(geom.R(0, 0, 1, 1))})
	if err != nil {
		t.Fatal(err)
	}
	base := resp.Epoch

	// Find shard 0's region and flood it with inserts until its root id
	// changes (testMaxEntries=16 keeps that cheap).
	rootBefore := routerShardRoot(router, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40 && routerShardRoot(router, 0) == rootBefore; i++ {
		ops := make([]wire.UpdateOp, 0, 64)
		for j := 0; j < 64; j++ {
			c := randPointIn(rng, router.part.Regions[0])
			ops = append(ops, wire.UpdateOp{
				Kind: wire.UpdateInsert,
				Obj:  rtree.ObjectID(2<<20 + i*64 + j),
				To:   geom.RectFromCenter(c, 0.001, 0.001),
				Size: 100,
			})
		}
		if _, err := router.RoundTrip(&wire.Request{Client: 900, Updates: ops}); err != nil {
			t.Fatal(err)
		}
		// A query refreshes the router's view of the shard root.
		if _, err := router.RoundTrip(&wire.Request{Client: 901, Q: query.NewRange(router.part.Regions[0])}); err != nil {
			t.Fatal(err)
		}
	}
	if routerShardRoot(router, 0) == rootBefore {
		t.Skip("could not provoke a root split")
	}

	resp, err = router.RoundTrip(&wire.Request{Client: 3, Epoch: base, Q: query.NewRange(geom.R(0, 0, 1, 1))})
	if err != nil {
		t.Fatal(err)
	}
	if resp.FlushAll {
		return // a flush drops the cached virtual root too: safe
	}
	for _, id := range resp.InvalidNodes {
		if id == VirtualRoot {
			return
		}
	}
	t.Fatalf("root split inside the client window did not invalidate the virtual root (invalid nodes: %v)", resp.InvalidNodes)
}

// TestClusterRootGrowthInvalidatesVirtualRoot covers the subtler root
// hazard: an insert into a gap inside a shard's KD region but outside its
// current root rectangle grows the root's MBR without changing its id. The
// cached virtual-root cut then carries a stale element MBR that would prune
// the grown region, so the router must invalidate VirtualRoot whenever the
// shard root's content changes inside the client's window — detected by the
// root id appearing in the shard's own invalidation report.
func TestClusterRootGrowthInvalidatesVirtualRoot(t *testing.T) {
	// Two tight clusters with a wide gap: the KD cut lands between them.
	var objs []dataset.Object
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		objs = append(objs, dataset.Object{
			ID:   rtree.ObjectID(i + 1),
			MBR:  geom.RectFromCenter(geom.Pt(0.1*rng.Float64()+0.05, 0.1*rng.Float64()+0.05), 0.002, 0.002),
			Size: 100,
		})
	}
	for i := 0; i < 100; i++ {
		objs = append(objs, dataset.Object{
			ID:   rtree.ObjectID(i + 101),
			MBR:  geom.RectFromCenter(geom.Pt(0.1*rng.Float64()+0.85, 0.1*rng.Float64()+0.85), 0.002, 0.002),
			Size: 100,
		})
	}
	single, router, cleanup := buildBoth(t, objs, 2)
	defer cleanup()
	_ = single

	// Prime the epoch machinery (all-zero epochs register no client state)
	// and give the client a tracked baseline.
	prime := []wire.UpdateOp{{Kind: wire.UpdateInsert, Obj: 5000,
		To: geom.RectFromCenter(geom.Pt(0.9, 0.9), 0.001, 0.001), Size: 64}}
	if _, err := router.RoundTrip(&wire.Request{Client: 900, Updates: prime}); err != nil {
		t.Fatal(err)
	}
	resp, err := router.RoundTrip(&wire.Request{Client: 3, Q: query.NewRange(geom.R(0, 0, 1, 1))})
	if err != nil {
		t.Fatal(err)
	}
	base := resp.Epoch
	if base == 0 {
		t.Fatal("expected a nonzero virtual epoch after priming")
	}

	// Grow shard 0's root MBR: the gap point is inside its KD region but
	// far outside its current root rectangle. The root id must not change.
	gapShard := router.part.Locate(geom.Pt(0.45, 0.1))
	rootBefore := routerShardRoot(router, gapShard)
	grow := []wire.UpdateOp{{Kind: wire.UpdateInsert, Obj: 5001,
		To: geom.RectFromCenter(geom.Pt(0.45, 0.1), 0.001, 0.001), Size: 64}}
	if _, err := router.RoundTrip(&wire.Request{Client: 900, Updates: grow}); err != nil {
		t.Fatal(err)
	}
	// Refresh the router's view of the shard root.
	if _, err := router.RoundTrip(&wire.Request{Client: 901, Q: query.NewRange(geom.R(0, 0, 1, 1))}); err != nil {
		t.Fatal(err)
	}
	if routerShardRoot(router, gapShard) != rootBefore {
		t.Skip("insert split the shard root; the id-change path covers that case")
	}

	resp, err = router.RoundTrip(&wire.Request{Client: 3, Epoch: base, Q: query.NewRange(geom.R(0.8, 0.8, 1, 1))})
	if err != nil {
		t.Fatal(err)
	}
	if resp.FlushAll {
		return // a flush drops the cached virtual root too: safe
	}
	for _, id := range resp.InvalidNodes {
		if id == VirtualRoot {
			return
		}
	}
	t.Fatalf("root MBR growth inside the client window did not invalidate the virtual root (invalid nodes: %v)", resp.InvalidNodes)
}

func routerShardRoot(r *Router, s int) rtree.NodeID {
	m := &r.slots[s].meta
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rootID
}

func randPointIn(rng *rand.Rand, rc geom.Rect) geom.Point {
	return geom.Pt(
		rc.MinX+rng.Float64()*(rc.MaxX-rc.MinX),
		rc.MinY+rng.Float64()*(rc.MaxY-rc.MinY),
	)
}
