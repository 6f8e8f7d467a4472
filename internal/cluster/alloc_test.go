package cluster

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestClusterRouteAllocBudget pins the acceptance bound: a warm query
// routed to a single shard costs at most 2 allocations in the router
// (scatter state, merge buffers, epoch handling and the response itself
// are all pooled). Race instrumentation inflates the measurement itself,
// so the budget runs in a non-race CI step and skips here under -race.
func TestClusterRouteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without -race instrumentation")
	}
	objs := genObjects(2000, 13)
	_, router, cleanup := buildBoth(t, objs, 4)
	defer cleanup()
	requireRouteAllocBudget(t, router)
}

// TestClusterRouteAllocBudgetAfterRestart holds the same budget on a
// durable cluster whose shard 0 was killed and restarted from its WAL: the
// endpoint the router redials must recycle responses into the restarted
// server's pool, or every response is a fresh allocation.
func TestClusterRouteAllocBudgetAfterRestart(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without -race instrumentation")
	}
	objs := genObjects(2000, 13)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	p, err := NewInProcess(objs, InProcessConfig{
		Shards:        4,
		Tree:          rtree.Params{MaxEntries: testMaxEntries},
		Sizer:         func(id rtree.ObjectID) int { return sizes[id] },
		WALDir:        t.TempDir(),
		WAL:           wal.Options{NoSync: true},
		FailThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Kill(0)
	if err := p.Restart(0); err != nil {
		t.Fatal(err)
	}
	requireRouteAllocBudget(t, p.Router)
	if p.Stats().Shard(0).Redials.Load() == 0 {
		t.Fatal("the router never redialed the restarted shard; fix the test")
	}
}

// requireRouteAllocBudget warms a range and a kNN query inside shard 0's
// region and fails the test when the warm range costs more than 2
// allocations per round trip.
func requireRouteAllocBudget(t *testing.T, router *Router) {
	t.Helper()
	// A window inside one shard's region routes to exactly one shard.
	reg := router.part.Regions[0]
	win := geom.RectFromCenter(reg.Center(), reg.Width()/8, reg.Height()/8)
	reqRange := &wire.Request{Client: 1, Q: query.NewRange(win)}
	reqKNN := &wire.Request{Client: 1, Q: query.NewKNN(reg.Center(), 4)}

	warm := func(req *wire.Request) {
		for i := 0; i < 16; i++ {
			resp, err := router.RoundTrip(req)
			if err != nil {
				t.Fatal(err)
			}
			router.ReleaseResponse(resp)
		}
	}
	warm(reqRange)
	warm(reqKNN)

	before := router.Stats().SingleShard.Load()
	resp, err := router.RoundTrip(reqRange)
	if err != nil {
		t.Fatal(err)
	}
	router.ReleaseResponse(resp)
	if router.Stats().SingleShard.Load() != before+1 {
		t.Fatal("range window did not route to a single shard; fix the test geometry")
	}

	allocs := testing.AllocsPerRun(200, func() {
		resp, err := router.RoundTrip(reqRange)
		if err != nil {
			t.Fatal(err)
		}
		router.ReleaseResponse(resp)
	})
	if allocs > 2 {
		t.Errorf("warm single-shard range: %.1f allocs/op, budget 2", allocs)
	}
}
