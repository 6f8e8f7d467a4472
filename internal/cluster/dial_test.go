package cluster

import (
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestDialClusterOverTCP stands up independently served shard processes
// (wire.NetServer over loopback, exactly the prodb serving path), dials
// them with cluster.Dial — deriving the partition from the shard roots —
// and checks query results against a single-node server served the same
// way, so both sides see identical float32 wire quantization.
func TestDialClusterOverTCP(t *testing.T) {
	objs := genObjects(1200, 21)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}

	serve := func(sh *server.Server) (string, func()) {
		ns := wire.NewNetServer(func(req *wire.Request) (*wire.Response, error) {
			if len(req.Updates) > 0 {
				return sh.ExecuteUpdates(req), nil
			}
			resp, _ := sh.Execute(req)
			return resp, nil
		}, wire.ServeConfig{Release: sh.ReleaseResponse})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = ns.Serve(ln) }()
		return ln.Addr().String(), func() { ns.Close(); sh.Close() }
	}

	single := buildServer(objs, sizes)
	singleAddr, stopSingle := serve(single)
	defer stopSingle()

	part, err := MakePartition(objs, 3)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for s, shardObjs := range part.Split(objs) {
		if len(shardObjs) == 0 {
			t.Fatalf("shard %d empty", s)
		}
		addr, stop := serve(buildServer(shardObjs, sizes))
		defer stop()
		addrs = append(addrs, addr)
	}

	router, err := Dial(addrs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if router.Shards() != 3 {
		t.Fatalf("Shards() = %d", router.Shards())
	}

	singleTr, err := wire.Dial(singleAddr, wire.RoleClient, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer singleTr.Close()

	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		c := geom.Pt(rng.Float64(), rng.Float64())
		var q query.Query
		switch i % 3 {
		case 0:
			q = query.NewRange(geom.RectFromCenter(c, 0.1, 0.1))
		case 1:
			q = query.NewKNN(c, 5)
		default:
			q = query.NewJoin(geom.RectFromCenter(c, 0.15, 0.15), 0.005)
		}
		tag := fmt.Sprintf("query %d (%s)", i, q.Kind)
		sResp, err := singleTr.RoundTrip(&wire.Request{Client: 1, Q: q})
		if err != nil {
			t.Fatalf("%s: single: %v", tag, err)
		}
		cResp, err := router.RoundTrip(&wire.Request{Client: 1, Q: q})
		if err != nil {
			t.Fatalf("%s: cluster: %v", tag, err)
		}
		switch q.Kind {
		case query.KNN:
			compareKNN(t, tag, q, sResp, cResp)
		case query.Join:
			compareJoin(t, tag, sResp, cResp)
		default:
			compareRange(t, tag, sResp, cResp)
		}
	}
}

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
