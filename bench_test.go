package repro

// One benchmark per table/figure of the paper's evaluation (Section 6) plus
// micro-benchmarks of the building blocks. Figure benchmarks run a reduced-
// scale simulation per iteration and print the regenerated table once; use
// cmd/procsim -full for paper-scale runs.

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bpt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/wire"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *sim.Environment
)

func benchEnvironment() *sim.Environment {
	benchEnvOnce.Do(func() {
		sc := benchScale()
		benchEnv = sim.NewNEEnvironment(sc)
	})
	return benchEnv
}

func benchScale() sim.Scale {
	sc := sim.BenchScale()
	if testing.Short() {
		sc = sim.TestScale()
	}
	return sc
}

// execAndRelease runs one request and returns the response to the server's
// response pool, mirroring the NetServer serving path (encode, then release).
func execAndRelease(srv *server.Server, req *wire.Request) {
	resp, _ := srv.Execute(req)
	srv.ReleaseResponse(resp)
}

var printOnce sync.Map

func printFirst(key string, print func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		print()
	}
}

// BenchmarkTable61 prints the parameter table; the measured op is building
// the simulation environment configuration.
func BenchmarkTable61(b *testing.B) {
	env := benchEnvironment()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(env)
		_ = cfg
	}
	printFirst("table61", func() {
		st := env.Tree.Stats()
		b.Logf("Table 6.1 environment: %d objects, %d nodes, height %d, fill %.0f%%",
			env.DS.Len(), st.Nodes, st.Height, st.AvgFill*100)
	})
}

// BenchmarkFigure6 regenerates the overall PAG/SEM/APRO comparison.
func BenchmarkFigure6(b *testing.B) {
	env := benchEnvironment()
	for i := 0; i < b.N; i++ {
		rows, err := sim.Figure6(env, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig6", func() { sim.FprintFigure6(os.Stdout, rows) })
	}
}

// BenchmarkFigure7 regenerates the mobility-model comparison.
func BenchmarkFigure7(b *testing.B) {
	env := benchEnvironment()
	for i := 0; i < b.N; i++ {
		rows, err := sim.Figure7(env, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig7", func() { sim.FprintFigure7(os.Stdout, rows) })
	}
}

// BenchmarkFigure8and9 regenerates the cache-size sweep (response time and
// client CPU figures share the runs).
func BenchmarkFigure8and9(b *testing.B) {
	env := benchEnvironment()
	for i := 0; i < b.N; i++ {
		rows, err := sim.Figure8and9(env, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig89", func() { sim.FprintFigure8and9(os.Stdout, rows) })
	}
}

// BenchmarkFigure10 regenerates the replacement-scheme comparison.
func BenchmarkFigure10(b *testing.B) {
	env := benchEnvironment()
	for i := 0; i < b.N; i++ {
		rows, err := sim.Figure10(env, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig10", func() { sim.FprintFigure10(os.Stdout, rows) })
	}
}

// BenchmarkFigure11 regenerates the adaptive-vs-static index form series.
func BenchmarkFigure11(b *testing.B) {
	env := benchEnvironment()
	for i := 0; i < b.N; i++ {
		series, err := sim.Figure11(env, benchScale(), 0)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig11", func() { sim.FprintFigure11(os.Stdout, series) })
	}
}

// BenchmarkAblationStaticD sweeps pinned refinement levels.
func BenchmarkAblationStaticD(b *testing.B) {
	env := benchEnvironment()
	sc := benchScale()
	sc.Queries /= 2
	for i := 0; i < b.N; i++ {
		rows, adaptive, err := sim.AblationStaticD(env, sc, []int{0, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		printFirst("abl-d", func() {
			for _, r := range rows {
				b.Logf("d=%d resp=%.3f fmr=%.3f hitc=%.3f", r.D, r.Resp, r.FMR, r.HitC)
			}
			b.Logf("adaptive resp=%.3f fmr=%.3f hitc=%.3f", adaptive.Resp, adaptive.FMR, adaptive.HitC)
		})
	}
}

// BenchmarkAblationGRD2vsGRD3 compares the reference and efficient
// replacement algorithms end to end.
func BenchmarkAblationGRD2vsGRD3(b *testing.B) {
	env := benchEnvironment()
	sc := benchScale()
	sc.Queries /= 2
	for i := 0; i < b.N; i++ {
		rows, err := sim.AblationGRD2vsGRD3(env, sc)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("abl-grd", func() {
			for _, r := range rows {
				b.Logf("%s resp=%.3f hitc=%.3f cpu=%.3fms", r.Policy, r.Resp, r.HitC, r.CacheOps)
			}
		})
	}
}

// BenchmarkAblationPartitionCost measures the Section 4.2 server-side cost
// of partition-tree navigation.
func BenchmarkAblationPartitionCost(b *testing.B) {
	env := benchEnvironment()
	sc := benchScale()
	sc.Queries /= 2
	for i := 0; i < b.N; i++ {
		rows, err := sim.AblationPartitionCost(env, sc)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("abl-part", func() {
			for _, r := range rows {
				b.Logf("%s server engine ops=%d", r.Model, r.ServerEngineOps)
			}
		})
	}
}

// BenchmarkExtensionUpdates measures the update/invalidation extension
// (server churn, epoch-based invalidation, stale retries).
func BenchmarkExtensionUpdates(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := sim.UpdateSweep(sc.Objects/2, sc.Queries/2, sc.Seed, []float64{0, 0.5, 2.0}, 20)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("ext-upd", func() { sim.FprintUpdateSweep(os.Stdout, rows) })
	}
}

// --------------------------------------------------------------------------
// Micro-benchmarks of the substrates.

func benchItems(n int) []rtree.Item {
	r := rand.New(rand.NewSource(1))
	items := make([]rtree.Item, n)
	for i := range items {
		c := geom.Pt(r.Float64(), r.Float64())
		items[i] = rtree.Item{Obj: rtree.ObjectID(i + 1), MBR: geom.RectFromCenter(c, 5e-4, 5e-4)}
	}
	return items
}

func BenchmarkRTreeInsert(b *testing.B) {
	items := benchItems(b.N)
	tr := rtree.New(rtree.DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(items[i].Obj, items[i].MBR)
	}
}

func BenchmarkRTreeBulkLoad100k(b *testing.B) {
	items := benchItems(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtree.BulkLoad(rtree.DefaultParams(), items, 0.7)
	}
}

func BenchmarkRTreeRangeQuery(b *testing.B) {
	tr := rtree.BulkLoad(rtree.DefaultParams(), benchItems(100_000), 0.7)
	r := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01)
		tr.RangeQuery(w)
	}
}

func BenchmarkRTreeKNN(b *testing.B) {
	tr := rtree.BulkLoad(rtree.DefaultParams(), benchItems(100_000), 0.7)
	r := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.KNN(geom.Pt(r.Float64(), r.Float64()), 5)
	}
}

func BenchmarkBPTBuild(b *testing.B) {
	entries := make([]rtree.Entry, 204)
	r := rand.New(rand.NewSource(4))
	for i := range entries {
		entries[i] = rtree.Entry{
			MBR: geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01),
			Obj: rtree.ObjectID(i + 1),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bpt.Build(1, entries)
	}
}

// BenchmarkClusterBoot is a cluster's set-up alone: cluster.NewInProcess over
// 100 000 NE objects with the repo benchmark's 4 KB pages and no WAL — the KD
// partition, then every shard's bulk load and page packing, one goroutine per
// shard.
func BenchmarkClusterBoot(b *testing.B) {
	objs := GenerateNE(100_000, 1)
	cfg := cluster.InProcessConfig{
		Tree:  rtree.Params{MaxEntries: 4096 / wire.DefaultSizeModel().Entry},
		Sizer: buildSizer(objs),
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg.Shards = shards
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := cluster.NewInProcess(objs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				p.Close()
				b.StartTimer()
			}
		})
	}
}

func BenchmarkMergeCuts(b *testing.B) {
	entries := make([]rtree.Entry, 128)
	r := rand.New(rand.NewSource(5))
	for i := range entries {
		entries[i] = rtree.Entry{
			MBR: geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01),
			Obj: rtree.ObjectID(i + 1),
		}
	}
	pt := bpt.Build(1, entries)
	a := pt.ExpandCut(pt.RootCut(), 3)
	c := pt.ExpandCut(pt.RootCut(), 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bpt.MergeCuts(a, c)
	}
}

func BenchmarkServerColdKNN(b *testing.B) {
	env := benchEnvironment()
	srv := server.New(env.Tree, env.DS.SizeOf, server.Config{})
	r := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := &wire.Request{Q: query.NewKNN(geom.Pt(r.Float64(), r.Float64()), 5)}
		srv.Execute(req)
	}
}

// BenchmarkServerExecuteParallel measures the concurrent serving path: many
// goroutines (one simulated client each) issuing mixed range/kNN requests
// against one shared Server. Run with -cpu 1,4 to see the multi-core
// scaling of the lock-free snapshot pin, sharded client state, and the
// partition-tree page table:
//
//	go test -bench BenchmarkServerExecuteParallel -cpu 1,4 .
func BenchmarkServerExecuteParallel(b *testing.B) {
	env := benchEnvironment()
	srv := server.New(env.Tree, env.DS.SizeOf, server.Config{})

	// Pregenerate a fixed query pool consumed through a shared cursor, so
	// every -cpu value executes the same work in the same proportions and
	// ns/op differences reflect the serving path, not workload skew.
	r := rand.New(rand.NewSource(42))
	pool := make([]query.Query, 4096)
	for i := range pool {
		p := geom.Pt(r.Float64(), r.Float64())
		if i%2 == 0 {
			pool[i] = query.NewRange(geom.RectFromCenter(p, 0.01, 0.01))
		} else {
			pool[i] = query.NewKNN(p, 5)
		}
	}
	// Warm the pools so first-use allocations don't dominate short runs.
	for i := 0; i < 64; i++ {
		srv.Execute(&wire.Request{Client: 1, Q: pool[i]})
	}

	var nextClient atomic.Uint32
	var cursor atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := wire.ClientID(nextClient.Add(1))
		req := &wire.Request{Client: id}
		for pb.Next() {
			req.Q = pool[cursor.Add(1)%uint64(len(pool))]
			execAndRelease(srv, req)
		}
	})
}

// --------------------------------------------------------------------------
// Warm serving hot path: one server, page table and pools warm, repeated
// Execute calls. These are the allocation-budget benchmarks tracked by
// scripts/bench.sh / BENCH_*.json; docs/PERF.md documents the per-request
// allocation ceiling they enforce.

// warmServer builds a server over the bench environment and runs a few
// queries so the pools are warm.
func warmServer(b *testing.B) *server.Server {
	env := benchEnvironment()
	srv := server.New(env.Tree, env.DS.SizeOf, server.Config{})
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 64; i++ {
		p := geom.Pt(r.Float64(), r.Float64())
		execAndRelease(srv, &wire.Request{Client: 1, Q: query.NewRange(geom.RectFromCenter(p, 0.01, 0.01))})
		execAndRelease(srv, &wire.Request{Client: 1, Q: query.NewKNN(p, 5)})
	}
	return srv
}

// benchmarkWarmExecute measures steady-state Execute over a fixed request
// pool (the serving path after the NetServer has decoded a request).
func benchmarkWarmExecute(b *testing.B, reqs []*wire.Request) {
	srv := warmServer(b)
	for _, req := range reqs[:min(len(reqs), 8)] {
		execAndRelease(srv, req) // touch every query shape once pre-timer
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		execAndRelease(srv, reqs[i%len(reqs)])
	}
}

func warmRequests(n int, mk func(r *rand.Rand) query.Query) []*wire.Request {
	r := rand.New(rand.NewSource(21))
	reqs := make([]*wire.Request, n)
	for i := range reqs {
		reqs[i] = &wire.Request{Client: 1, Q: mk(r)}
	}
	return reqs
}

// BenchmarkWarmRangeExecute is the headline allocation benchmark: a warm
// range query on the server should be effectively allocation-free.
func BenchmarkWarmRangeExecute(b *testing.B) {
	benchmarkWarmExecute(b, warmRequests(512, func(r *rand.Rand) query.Query {
		return query.NewRange(geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01))
	}))
}

func BenchmarkWarmKNNExecute(b *testing.B) {
	benchmarkWarmExecute(b, warmRequests(512, func(r *rand.Rand) query.Query {
		return query.NewKNN(geom.Pt(r.Float64(), r.Float64()), 5)
	}))
}

func BenchmarkWarmJoinExecute(b *testing.B) {
	benchmarkWarmExecute(b, warmRequests(512, func(r *rand.Rand) query.Query {
		return query.NewJoin(geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.004, 0.004), 5e-5)
	}))
}

// BenchmarkAPROBuild isolates the supporting-index construction (packed-page
// navigation + cut assembly) that rides on every indexed response:
// the remainder query resumes from a handed-over H instead of the root, so
// the engine does little work and index building dominates.
func BenchmarkAPROBuild(b *testing.B) {
	srv := warmServer(b)
	r := rand.New(rand.NewSource(22))
	reqs := make([]*wire.Request, 128)
	for i := range reqs {
		p := geom.Pt(r.Float64(), r.Float64())
		q := query.NewKNN(p, 5)
		reqs[i] = &wire.Request{
			Client: 1,
			Q:      q,
			H:      query.SeedRoot(q, srv.RootRef()),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		execAndRelease(srv, reqs[i%len(reqs)])
	}
}

// --------------------------------------------------------------------------
// Mixed read/write path: queries against a snapshot-isolated server while a
// sustained MoveObject stream publishes new snapshots. These benchmarks own
// a private tree (the update stream mutates the index, so the shared
// benchEnvironment must not be used). BenchmarkMixedQueryUnderUpdates is
// expected to stay within ~20% of BenchmarkMixedQueryBaseline: queries pin
// snapshots lock-free and never wait for the writer.

// benchMutableServer builds a private server plus a churn flock the update
// stream moves around, warmed so pools, page table, and writer buffers are hot.
func benchMutableServer(b *testing.B, churn int) (*server.Server, []geom.Rect, []wire.UpdateOp) {
	b.Helper()
	r := rand.New(rand.NewSource(55))
	n := 20_000
	if testing.Short() {
		n = 4_000
	}
	items := make([]rtree.Item, n)
	for i := range items {
		items[i] = rtree.Item{
			Obj: rtree.ObjectID(i + 1),
			MBR: geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.001, 0.001),
		}
	}
	tree := rtree.BulkLoad(rtree.Params{MaxEntries: 64}, items, 0.7)
	srv := server.New(tree, func(rtree.ObjectID) int { return 1024 }, server.Config{})
	b.Cleanup(srv.Close)

	rects := make([]geom.Rect, churn)
	ops := make([]wire.UpdateOp, 0, churn)
	for i := range rects {
		rects[i] = geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.001, 0.001)
		ops = append(ops, wire.UpdateOp{
			Kind: wire.UpdateInsert, Obj: rtree.ObjectID(1_000_000 + i), To: rects[i], Size: 256,
		})
	}
	srv.ApplyUpdates(ops, nil) // also warms the writer's buffer rotation
	for i := 0; i < 64; i++ {
		execAndRelease(srv, &wire.Request{Client: 1, Q: query.NewRange(geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01))})
	}
	return srv, rects, ops[:0]
}

// moveStreamInterval paces the benchmark's update stream at 20 batches of 64
// moves per second — a sustained 1280 moves/s feed, heavy for the paper's
// moving-object setting but far from saturating the writer, so the benchmark
// measures what a realistic stream costs readers rather than how fast one
// core can checkpoint.
const moveStreamInterval = 50 * time.Millisecond

// runMoveStream streams batches of 64 moves through ApplyUpdates until stop
// closes, returning a channel that reports the total applied operations.
func runMoveStream(srv *server.Server, rects []geom.Rect, ops []wire.UpdateOp, stop <-chan struct{}) <-chan int64 {
	total := make(chan int64, 1)
	go func() {
		r := rand.New(rand.NewSource(56))
		var applied int64
		next := 0
		var res []bool
		tick := time.NewTicker(moveStreamInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				total <- applied
				return
			case <-tick.C:
			}
			ops = ops[:0]
			for k := 0; k < 64; k++ {
				i := next % len(rects)
				next++
				to := geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.001, 0.001)
				ops = append(ops, wire.UpdateOp{
					Kind: wire.UpdateMove, Obj: rtree.ObjectID(1_000_000 + i), From: rects[i], To: to,
				})
				rects[i] = to
			}
			res = srv.ApplyUpdates(ops, res)
			applied += int64(len(res))
		}
	}()
	return total
}

func benchmarkMixedQueries(b *testing.B, withUpdates bool) {
	srv, rects, ops := benchMutableServer(b, 4096)
	r := rand.New(rand.NewSource(57))
	pool := make([]query.Query, 1024)
	for i := range pool {
		p := geom.Pt(r.Float64(), r.Float64())
		if i%2 == 0 {
			pool[i] = query.NewRange(geom.RectFromCenter(p, 0.01, 0.01))
		} else {
			pool[i] = query.NewKNN(p, 5)
		}
	}
	var stop chan struct{}
	var total <-chan int64
	if withUpdates {
		stop = make(chan struct{})
		total = runMoveStream(srv, rects, ops, stop)
	}
	var nextClient atomic.Uint32
	var cursor atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	start := nowSeconds()
	b.RunParallel(func(pb *testing.PB) {
		id := wire.ClientID(nextClient.Add(1))
		req := &wire.Request{Client: id}
		for pb.Next() {
			req.Q = pool[cursor.Add(1)%uint64(len(pool))]
			resp, _ := srv.Execute(req)
			req.Epoch = resp.Epoch // live clients track the server epoch
			srv.ReleaseResponse(resp)
		}
	})
	b.StopTimer()
	if withUpdates {
		close(stop)
		applied := <-total
		if dt := nowSeconds() - start; dt > 0 {
			b.ReportMetric(float64(applied)/dt, "moves/s")
		}
	}
}

func nowSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// BenchmarkMixedQueryBaseline is the control: parallel queries on the
// private mutable server with no update stream.
func BenchmarkMixedQueryBaseline(b *testing.B) { benchmarkMixedQueries(b, false) }

// BenchmarkMixedQueryUnderUpdates runs the same query workload while a
// writer goroutine streams 64-move batches; the gap to the baseline is the
// total cost updates impose on readers under snapshot isolation.
func BenchmarkMixedQueryUnderUpdates(b *testing.B) { benchmarkMixedQueries(b, true) }

// BenchmarkUpdateThroughput measures the write path alone: batched moves
// through the single-writer queue, one published snapshot per batch, ns/op
// is per move.
func BenchmarkUpdateThroughput(b *testing.B) {
	srv, rects, ops := benchMutableServer(b, 4096)
	r := rand.New(rand.NewSource(58))
	var res []bool
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		batch := 64
		if b.N-done < batch {
			batch = b.N - done
		}
		ops = ops[:0]
		for k := 0; k < batch; k++ {
			i := next % len(rects)
			next++
			to := geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.001, 0.001)
			ops = append(ops, wire.UpdateOp{
				Kind: wire.UpdateMove, Obj: rtree.ObjectID(1_000_000 + i), From: rects[i], To: to,
			})
			rects[i] = to
		}
		res = srv.ApplyUpdates(ops, res)
		for k, ok := range res {
			if !ok {
				b.Fatalf("move %d rejected", done+k)
			}
		}
		done += batch
	}
}

func BenchmarkClientWarmKNN(b *testing.B) {
	env := benchEnvironment()
	srv := server.New(env.Tree, env.DS.SizeOf, server.Config{})
	sizes := wire.DefaultSizeModel()
	cache := core.NewCache(64<<20, core.GRD3, sizes)
	cl := core.NewClient(core.ClientConfig{ID: 1, Root: srv.RootRef(), Sizes: sizes},
		cache, wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
			resp, _ := srv.Execute(req)
			return resp, nil
		}))
	// Warm the area.
	center := geom.Pt(0.5, 0.5)
	if _, err := cl.Query(query.NewRange(geom.RectFromCenter(center, 0.05, 0.05))); err != nil {
		b.Fatal(err)
	}
	if _, err := cl.Query(query.NewKNN(center, 5)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Query(query.NewKNN(center, 5)); err != nil {
			b.Fatal(err)
		}
	}
}

// tourClient is the repo benchmark's mobile-tour regime in process: a client
// with a GRD3 cache of 1 % of the dataset on a random-waypoint walk, asking a
// third each of range, kNN and join with benchmark/gen.go's parameters, warmed
// by 4 000 queries so the cache is full and every miss evicts. next advances
// the walk and returns the next query.
func tourClient(b *testing.B) (cl *core.Client, srv *server.Server, next func() query.Query) {
	env := benchEnvironment()
	sizes := wire.DefaultSizeModel()
	srv = server.New(env.Tree, env.DS.SizeOf, server.Config{})
	transport := wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
		resp, _ := srv.Execute(req)
		return resp, nil
	})
	cache := core.NewCache(int(env.DS.TotalBytes/100), core.GRD3, sizes)
	cl = core.NewClient(core.ClientConfig{ID: 1, Root: srv.RootRef(), Sizes: sizes, FMRPeriod: 50}, cache, transport)

	const thinkMean = 50
	r := rand.New(rand.NewSource(7))
	walk := mobility.NewRandomWaypoint(mobility.Config{Speed: 1e-4, PauseMean: thinkMean}, rand.New(rand.NewSource(8)))
	next = func() query.Query {
		pos := walk.Advance(r.ExpFloat64() * thinkMean)
		cl.SetPosition(pos)
		switch r.Intn(3) {
		case 0:
			return query.NewRange(geom.RectFromCenter(pos, 0.002, 0.002))
		case 1:
			return query.NewKNN(pos, 1+r.Intn(5))
		}
		return query.NewJoin(geom.RectFromCenter(pos, 0.004, 0.004), 5e-5)
	}
	for i := 0; i < 4000; i++ {
		if _, err := cl.Query(next()); err != nil {
			b.Fatal(err)
		}
	}
	return cl, srv, next
}

// BenchmarkClientTour is one query of the paper's client in steady state, the
// server called in process: what core.client_self_us measures over TCP, plus
// the server's share of the remainder queries.
func BenchmarkClientTour(b *testing.B) {
	cl, _, next := tourClient(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Query(next()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGRD3Eviction is one overflow of a full cache: the steady-state tour
// cache takes the cold answer to a query further along the walk, so every
// iteration inserts a response and evicts back to 1 % of the dataset.
func BenchmarkGRD3Eviction(b *testing.B) {
	cl, srv, next := tourClient(b)
	cache := cl.Cache()
	resps := make([]*wire.Response, 512)
	for i := range resps {
		q := next()
		resps[i], _ = srv.Execute(&wire.Request{Client: 2, Q: q, H: query.SeedRoot(q, srv.RootRef())})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.BeginQuery()
		cache.InsertResponse(resps[i%len(resps)])
	}
}

func BenchmarkEngineJoin(b *testing.B) {
	env := benchEnvironment()
	srv := server.New(env.Tree, env.DS.SizeOf, server.Config{})
	r := rand.New(rand.NewSource(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.004, 0.004)
		req := &wire.Request{Q: query.NewJoin(w, 5e-5)}
		srv.Execute(req)
	}
}

// --- Cluster routing benchmarks (PR 5) -----------------------------------
//
// BenchmarkClusterRange/KNN measure the scatter-gather router against the
// same workload at 1 and 4 shards. Range windows are tiny, so at 4 shards
// almost every query routes to a single shard — the fan-out-free fast path
// whose allocation budget (<= 2 allocs/op, enforced by
// TestClusterRouteAllocBudget in internal/cluster) scripts/bench.sh tracks
// in BENCH_<pr>.json. Fresh kNN queries probe every shard, so the 4-shard
// kNN row prices the full best-first scatter with its merge and re-issue
// protocol.

var clusterBenchServers sync.Map // int -> *ClusterServer

func benchClusterServer(b *testing.B, shards int) *ClusterServer {
	if cs, ok := clusterBenchServers.Load(shards); ok {
		return cs.(*ClusterServer)
	}
	cs, err := NewClusterServer(GenerateNE(20_000, 77), ClusterConfig{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	clusterBenchServers.Store(shards, cs)
	return cs
}

func benchmarkClusterQueries(b *testing.B, shards int, mk func(r *rand.Rand) query.Query) {
	cs := benchClusterServer(b, shards)
	handle := cs.Handler()
	r := rand.New(rand.NewSource(31))
	reqs := make([]*wire.Request, 512)
	for i := range reqs {
		reqs[i] = &wire.Request{Client: 1, Q: mk(r)}
	}
	run := func(req *wire.Request) {
		resp, err := handle(req)
		if err != nil {
			b.Fatal(err)
		}
		cs.ReleaseResponse(resp)
	}
	// One full pass pre-timer: every node the pool touches gets its lazy
	// partition tree built, so the timed loop measures steady state.
	for _, req := range reqs {
		run(req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(reqs[i%len(reqs)])
	}
}

func BenchmarkClusterRange(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchmarkClusterQueries(b, shards, func(r *rand.Rand) query.Query {
				return query.NewRange(geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.002, 0.002))
			})
		})
	}
}

func BenchmarkClusterKNN(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchmarkClusterQueries(b, shards, func(r *rand.Rand) query.Query {
				return query.NewKNN(geom.Pt(r.Float64(), r.Float64()), 5)
			})
		})
	}
}

// BenchmarkJoinTail is a big-scans join through the router: 100 000 NE
// objects on 2 shards, 600 cold joins of side 0.01 at distance 2e-4 centred
// on random objects, each a Router.RoundTrip. A few of them return tens of
// thousands of pairs and set the workload's p99; pairs/op says how many
// pairs an operation carried on average.
func BenchmarkJoinTail(b *testing.B) {
	objects := GenerateNE(100_000, 1)
	cs, err := NewClusterServer(objects, ClusterConfig{Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer cs.Close()
	r := rand.New(rand.NewSource(38))
	reqs := make([]*wire.Request, 600)
	for i := range reqs {
		c := objects[r.Intn(len(objects))].MBR.Center()
		reqs[i] = &wire.Request{Client: 1, Q: query.NewJoin(geom.RectFromCenter(c, 0.01, 0.01), 2e-4)}
	}
	handle := cs.Handler()
	run := func(req *wire.Request) int {
		resp, err := handle(req)
		if err != nil {
			b.Fatal(err)
		}
		n := len(resp.Pairs)
		cs.ReleaseResponse(resp)
		return n
	}
	for _, req := range reqs[:64] {
		run(req)
	}
	pairs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs += run(reqs[i%len(reqs)])
	}
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
}

// BenchmarkRangeAnswer is a big-scans range through the router: 100 000 NE
// objects on 2 shards, 600 cold ranges of side 0.1 centred on random
// objects, each answered by Handler and released. About a fifth of them
// answer more than 4 096 objects; objects/op says how many an operation
// carried on average.
func BenchmarkRangeAnswer(b *testing.B) {
	objects := GenerateNE(100_000, 1)
	cs, err := NewClusterServer(objects, ClusterConfig{Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer cs.Close()
	r := rand.New(rand.NewSource(39))
	reqs := make([]*wire.Request, 600)
	for i := range reqs {
		c := objects[r.Intn(len(objects))].MBR.Center()
		reqs[i] = &wire.Request{Client: 1, Q: query.NewRange(geom.RectFromCenter(c, 0.1, 0.1))}
	}
	handle := cs.Handler()
	run := func(req *wire.Request) int {
		resp, err := handle(req)
		if err != nil {
			b.Fatal(err)
		}
		n := len(resp.Objects)
		cs.ReleaseResponse(resp)
		return n
	}
	for _, req := range reqs[:64] {
		run(req)
	}
	objs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		objs += run(reqs[i%len(reqs)])
	}
	b.ReportMetric(float64(objs)/float64(b.N), "objects/op")
}
