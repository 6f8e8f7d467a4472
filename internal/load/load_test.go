package load

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wire"
)

func testCluster(t *testing.T, shards, objects int) *cluster.InProcess {
	t.Helper()
	ds := dataset.GenerateNE(dataset.Params{N: objects, Seed: 7})
	cl, err := cluster.NewInProcess(ds.Objects, cluster.InProcessConfig{
		Shards: shards,
		Sizer:  ds.SizeOf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestLoadHarnessSmoke is a short open-loop run against an in-process
// 2-shard cluster (run under -race in CI), asserting the schedule was
// sustained within tolerance, every arrival went to the wire cold (no
// handed-over queue), and not a single protocol error occurred.
func TestLoadHarnessSmoke(t *testing.T) {
	cl := testCluster(t, 2, 4000)
	sp, err := Lookup("baseline")
	if err != nil {
		t.Fatal(err)
	}
	var warm atomic.Int64
	cold := wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
		if len(req.H) > 0 {
			warm.Add(1)
		}
		return cl.Router.RoundTrip(req)
	})
	const target = 500.0
	res, err := Run(Config{
		Spec:         sp,
		TargetQPS:    target,
		Duration:     time.Second,
		Users:        100_000,
		Workers:      4,
		Seed:         42,
		NewTransport: func(int) (wire.Transport, error) { return cold, nil },
		Release:      cl.Router.ReleaseResponse,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d protocol errors in a healthy run", res.Errors)
	}
	if res.Shed != 0 {
		t.Fatalf("%d arrivals shed at a trivial rate", res.Shed)
	}
	// Generous tolerance: -race on shared CI hardware is slow, and the
	// quantiles — not this smoke — are where regressions are judged.
	if frac := res.AchievedQPS / target; frac < 0.70 || frac > 1.40 {
		t.Fatalf("achieved %.0f qps, %.2f of the %.0f target (want 0.70..1.40)",
			res.AchievedQPS, frac, target)
	}
	if res.WireSent != res.Scheduled || res.WireOK != res.WireSent {
		t.Fatalf("scheduled=%d wire=%d ok=%d: every arrival must be answered on the wire",
			res.Scheduled, res.WireSent, res.WireOK)
	}
	if n := warm.Load(); n != 0 {
		t.Fatalf("%d requests handed over a queue; every operation must be cold", n)
	}
	if res.Updates == 0 || res.UpdateRejects != 0 {
		t.Errorf("update feed: %d batches, %d rejects", res.Updates, res.UpdateRejects)
	}
	if res.BytesUp == 0 || res.BytesDown == 0 {
		t.Errorf("byte accounting missing: up=%d down=%d", res.BytesUp, res.BytesDown)
	}
	if res.P50 > res.P99 || res.P99 > res.P999 {
		t.Errorf("quantiles out of order: %v %v %v", res.P50, res.P99, res.P999)
	}
}

// TestLoadHarnessTCP drives the harness over a real pipelined TCP
// connection to a served cluster endpoint — the transport cmd/proload
// uses against live shards.
func TestLoadHarnessTCP(t *testing.T) {
	cl := testCluster(t, 2, 2000)
	srv := wire.NewNetServer(func(req *wire.Request) (*wire.Response, error) {
		return cl.Router.RoundTrip(req)
	}, wire.ServeConfig{Release: cl.Router.ReleaseResponse})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	sp, _ := Lookup("baseline")
	res, err := Run(Config{
		Spec:      sp,
		TargetQPS: 300,
		Duration:  time.Second,
		Users:     50_000,
		Workers:   2,
		Seed:      3,
		NewTransport: func(int) (wire.Transport, error) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return nil, err
			}
			return wire.NewBinaryClientConn(conn)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors over TCP", res.Errors)
	}
	if res.WireOK == 0 {
		t.Fatal("nothing completed over TCP")
	}
}

// TestLoadUpdatesApplied checks the moving-object feed: an update-heavy
// run fills each worker's pool and moves it, the server acks every
// mutation, and the moves survive the exact-rectangle echo contract.
func TestLoadUpdatesApplied(t *testing.T) {
	cl := testCluster(t, 2, 2000)
	res, err := Run(Config{
		Spec:         Spec{Name: "moves", RangeFrac: 0.5, UpdateFrac: 0.5, UpdateBatch: 16, Poisson: true},
		TargetQPS:    300,
		Duration:     time.Second,
		Users:        10_000,
		Workers:      2,
		Seed:         9,
		NewTransport: func(int) (wire.Transport, error) { return cl.Router, nil },
		Release:      cl.Router.ReleaseResponse,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if res.Updates == 0 {
		t.Fatal("no updates sent")
	}
	if res.UpdateRejects != 0 {
		t.Fatalf("%d update rejects: rectangle echo does not match stored entries", res.UpdateRejects)
	}
}

// TestLoadSurvivesConnectFailure pins the harness contract for broken
// backends: a worker that cannot connect keeps running, its operations
// fail as counted events, and Run returns normally — it never aborts.
func TestLoadSurvivesConnectFailure(t *testing.T) {
	var events atomic.Int64
	sp, _ := Lookup("baseline")
	res, err := Run(Config{
		Spec:      sp,
		TargetQPS: 200,
		Duration:  500 * time.Millisecond,
		Users:     1000,
		Workers:   2,
		Seed:      1,
		NewTransport: func(int) (wire.Transport, error) {
			return nil, errors.New("synthetic dial failure")
		},
		OnEvent: func(int, error) { events.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("no errors counted against a dead backend")
	}
	if res.WireOK != 0 {
		t.Fatalf("%d operations succeeded against a dead backend", res.WireOK)
	}
	if events.Load() == 0 {
		t.Fatal("OnEvent never observed the failures")
	}
	if res.Pass() {
		t.Fatal("SLO passed against a dead backend")
	}
}

// TestLoadUnansweredCountAgainstSLO runs against a stub backend that answers
// every fifth operation late (past the timeout, before the drain deadline)
// and never answers every seventh: the late ones are Timeouts, the
// unanswered ones are exactly WireSent - WireOK - Errors, each is a latency
// sample at the drain deadline, and together they fail the SLO.
func TestLoadUnansweredCountAgainstSLO(t *testing.T) {
	const timeout = 100 * time.Millisecond
	never := make(chan struct{})
	t.Cleanup(func() { close(never) }) // lets the abandoned round trips return
	var ops, hung, late atomic.Int64
	stub := wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
		if req.Catalog {
			return &wire.Response{}, nil
		}
		switch n := ops.Add(1); {
		case n%7 == 0:
			hung.Add(1)
			<-never
		case n%5 == 0:
			late.Add(1)
			time.Sleep(timeout + 100*time.Millisecond)
		}
		return &wire.Response{}, nil
	})
	sp, _ := Lookup("baseline")
	res, err := Run(Config{
		Spec:         sp,
		TargetQPS:    200,
		Duration:     300 * time.Millisecond,
		Users:        1000,
		Workers:      2,
		Seed:         1,
		Timeout:      timeout,
		NewTransport: func(int) (wire.Transport, error) { return stub, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors from a backend that never fails", res.Errors)
	}
	if got := res.WireSent - res.WireOK; got != hung.Load() || got == 0 {
		t.Fatalf("%d of %d operations unanswered, the stub hung %d", got, res.WireSent, hung.Load())
	}
	if res.Timeouts < late.Load() || late.Load() == 0 {
		t.Fatalf("%d timeouts, the stub answered %d late", res.Timeouts, late.Load())
	}
	// The drain waits timeout + 500ms after the last arrival, so every
	// unanswered sample lies beyond it, and they are over 1 % of the run.
	if res.P99 < timeout+500*time.Millisecond {
		t.Fatalf("p99 %v: the unanswered operations are not latency samples at the drain deadline", res.P99)
	}
	if res.Pass() || !strings.Contains(strings.Join(res.Violations, "; "), "unanswered") {
		t.Fatalf("SLO passed or did not name the unanswered operations: %v", res.Violations)
	}
}

// nilConn is a transport whose nil pointer panics on use.
type nilConn struct{ tr wire.Transport }

func (c *nilConn) RoundTrip(req *wire.Request) (*wire.Response, error) { return c.tr.RoundTrip(req) }

// TestLoadTypedNilTransport: a NewTransport that returns a typed nil beside
// its error leaves that worker unconnected — its operations fail as counted
// errors — instead of handing the typed nil to the worker, which would
// pass its nil checks and panic on the first round trip.
func TestLoadTypedNilTransport(t *testing.T) {
	ok := wire.TransportFunc(func(*wire.Request) (*wire.Response, error) { return &wire.Response{}, nil })
	sp, _ := Lookup("baseline")
	res, err := Run(Config{
		Spec:      sp,
		TargetQPS: 200,
		Duration:  300 * time.Millisecond,
		Users:     1000,
		Workers:   2,
		Seed:      1,
		NewTransport: func(w int) (wire.Transport, error) {
			if w == 0 {
				return (*nilConn)(nil), errors.New("synthetic dial failure")
			}
			return ok, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("the unconnected worker's operations were not counted as errors")
	}
	if res.WireOK == 0 {
		t.Fatal("the connected worker completed nothing")
	}
}

// TestLoadShardErrorsCounted puts a shard that starts failing mid-run
// inside a cluster router every worker shares: the dead shard's sub-query
// failures surface as counted shard errors and query failures, not a
// harness abort.
func TestLoadShardErrorsCounted(t *testing.T) {
	ds := dataset.GenerateNE(dataset.Params{N: 2000, Seed: 7})
	part, err := cluster.MakePartition(ds.Objects, 2)
	if err != nil {
		t.Fatal(err)
	}
	var kill atomic.Bool
	shards := make([]cluster.Shard, 2)
	for s, objs := range part.Split(ds.Objects) {
		items := make([]rtree.Item, len(objs))
		for i, o := range objs {
			items[i] = rtree.Item{Obj: o.ID, MBR: o.MBR}
		}
		srv := server.New(rtree.BulkLoad(rtree.DefaultParams(), items, 0.7), ds.SizeOf, server.Config{})
		t.Cleanup(srv.Close)
		shards[s] = cluster.Shard{
			T: wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
				if len(req.Updates) > 0 {
					return srv.ExecuteUpdates(req), nil
				}
				resp, _ := srv.Execute(req)
				return resp, nil
			}),
			Release: srv.ReleaseResponse,
		}
	}
	// Shard 0 starts failing halfway through the run.
	healthy := shards[0].T
	shards[0].T = wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
		if kill.Load() && !req.Catalog {
			return nil, errors.New("shard down")
		}
		return healthy.RoundTrip(req)
	})
	router, err := cluster.New(shards, cluster.Config{Part: part, Sizer: ds.SizeOf})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(250 * time.Millisecond)
		kill.Store(true)
	}()
	sp, _ := Lookup("baseline")
	res, err := Run(Config{
		Spec:         sp,
		TargetQPS:    400,
		Duration:     500 * time.Millisecond,
		Users:        1000,
		Workers:      2,
		Seed:         1,
		NewTransport: func(int) (wire.Transport, error) { return router, nil },
		Cluster:      router.Stats().Snapshot,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WireOK == 0 {
		t.Fatal("nothing succeeded before the failure")
	}
	if res.Errors == 0 {
		t.Fatal("mid-run failures were not counted")
	}
	if res.ShardErrors == 0 {
		t.Fatal("no shard errors reported")
	}
}

// TestWorkerInsertIDsDisjoint pins the insert id layout: no two workers
// ever insert the same object id. A worker count the layout cannot keep
// apart is a setup error; every accepted count keeps every worker's ids
// its own.
func TestWorkerInsertIDsDisjoint(t *testing.T) {
	sp, err := Lookup("shard-skew")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{maxWorkers, maxWorkers + 1, 1 << 16} {
		var mu sync.Mutex
		owner := map[uint32]wire.ClientID{}
		clash := ""
		tr := wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
			resp := &wire.Response{}
			mu.Lock()
			defer mu.Unlock()
			for _, u := range req.Updates {
				if c, ok := owner[uint32(u.Obj)]; ok && c != req.Client && clash == "" {
					clash = fmt.Sprintf("clients %d and %d both inserted object %#x", c, req.Client, u.Obj)
				}
				owner[uint32(u.Obj)] = req.Client
				resp.UpdateResults = append(resp.UpdateResults, true)
			}
			return resp, nil
		})
		_, err := Run(Config{
			Spec:         sp,
			TargetQPS:    float64(workers) * 40,
			Duration:     200 * time.Millisecond,
			Users:        1000,
			Workers:      workers,
			Seed:         5,
			NewTransport: func(int) (wire.Transport, error) { return tr, nil },
		})
		if err != nil {
			continue // rejected up front: fine
		}
		if clash != "" {
			t.Fatalf("%d workers: %s", workers, clash)
		}
		if len(owner) == 0 {
			t.Fatalf("%d workers inserted nothing", workers)
		}
	}
}
