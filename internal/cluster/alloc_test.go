package cluster

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wal"
	"repro/internal/wire"
)

// allocTestObjects gives each of 4 shards enough objects (~7 500) for a
// single-shard answer of more than 4 096 objects.
const allocTestObjects = 30_000

// TestClusterRouteAllocBudget pins the acceptance bound: a warm query
// routed to a single shard costs at most 2 allocations in the router
// (scatter state, merge buffers, epoch handling and the response itself
// are all pooled). Race instrumentation inflates the measurement itself,
// so the budget runs in a non-race CI step and skips here under -race.
func TestClusterRouteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without -race instrumentation")
	}
	objs := genObjects(allocTestObjects, 13)
	_, router, cleanup := buildBoth(t, objs, 4)
	defer cleanup()
	requireRouteAllocBudget(t, router)
}

// TestClusterRouteAllocBudgetAfterRestart holds the same budget on a
// durable cluster whose shard 0 was killed and restarted from its WAL: the
// shard's endpoint must recycle responses into the restarted server's pool,
// or every response is a fresh allocation.
func TestClusterRouteAllocBudgetAfterRestart(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without -race instrumentation")
	}
	objs := genObjects(allocTestObjects, 13)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	p, err := NewInProcess(objs, InProcessConfig{
		Shards: 4,
		Tree:   rtree.Params{MaxEntries: testMaxEntries},
		Sizer:  func(id rtree.ObjectID) int { return sizes[id] },
		WALDir: t.TempDir(),
		WAL:    wal.Options{NoSync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	before := p.proc(0).cur.Load()
	p.Kill(0)
	if err := p.Restart(0); err != nil {
		t.Fatal(err)
	}
	if now := p.proc(0).cur.Load(); now == nil || now == before {
		t.Fatal("shard 0 holds no restarted server; fix the test")
	}
	requireRouteAllocBudget(t, p.Router)
}

// requireRouteAllocBudget warms queries inside shard 0's region, each
// routed to that shard alone, and fails the test when a warm one costs more
// than 2 allocations per round trip: a small range, and a range and a join
// whose answers (more than 4 096 objects, more than 4 096 pairs) are larger
// than any per-request scratch that is thrown away and regrown.
func requireRouteAllocBudget(t *testing.T, router *Router) {
	t.Helper()
	reg := router.part.Regions[0]
	small := geom.RectFromCenter(reg.Center(), reg.Width()/8, reg.Height()/8)
	big := geom.RectFromCenter(reg.Center(), reg.Width()*0.9, reg.Height()*0.9)
	roundTrip := func(req *wire.Request) (objects, pairs int) {
		resp, err := router.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		objects, pairs = len(resp.Objects), len(resp.Pairs)
		router.ReleaseResponse(resp)
		return objects, pairs
	}
	// The join's distance grows until it answers more than 4 096 pairs.
	join := &wire.Request{Client: 1, Q: query.NewJoin(big, 1e-4)}
	for _, pairs := roundTrip(join); pairs <= 4096; _, pairs = roundTrip(join) {
		join.Q = query.NewJoin(big, join.Q.Dist*1.5)
	}
	cases := []struct {
		name string
		req  *wire.Request
	}{
		{"range", &wire.Request{Client: 1, Q: query.NewRange(small)}},
		{"range > 4096 objects", &wire.Request{Client: 1, Q: query.NewRange(big)}},
		{"join > 4096 pairs", join},
	}
	objects, _ := roundTrip(cases[1].req)
	if objects <= 4096 {
		t.Fatalf("the big window answers %d objects, want > 4096; fix the test geometry", objects)
	}
	_, pairs := roundTrip(join)
	t.Logf("big range: %d objects; join at distance %.2g: %d pairs", objects, join.Q.Dist, pairs)
	for _, req := range []*wire.Request{cases[0].req, {Client: 1, Q: query.NewKNN(reg.Center(), 4)}, cases[1].req, join} {
		for i := 0; i < 16; i++ {
			roundTrip(req)
		}
	}

	for _, c := range cases {
		before := router.Stats().SingleShard.Load()
		roundTrip(c.req)
		if router.Stats().SingleShard.Load() != before+1 {
			t.Fatalf("%s did not route to a single shard; fix the test geometry", c.name)
		}
		allocs := testing.AllocsPerRun(50, func() { roundTrip(c.req) })
		if allocs > 2 {
			t.Errorf("warm single-shard %s: %.1f allocs/op, budget 2", c.name, allocs)
		}
	}
}
