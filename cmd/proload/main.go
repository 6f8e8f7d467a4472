// Command proload is the open-loop load generator: it drives a spatial
// database endpoint — a live TCP cluster (one address per shard), a single
// TCP server, or an in-process cluster it builds itself — at a target
// arrival rate with millions of hash-derived simulated mobile users, every
// operation a cold wire request, and reports SLO-style results (p50/p99/p999, achieved vs target QPS, error
// and shed counts, byte accounting) per scenario, humanly and as JSON.
//
// Usage:
//
//	proload -inprocess 4 -scenario baseline -qps 5000 -duration 5s
//	proload -inprocess 4 -edge -scenario flash-crowd       # through an edge cache
//	proload -inprocess 4 -elastic -scenario shard-skew     # rebalancer splits the hot shard
//	proload -inprocess 4 -elastic-force -scenario baseline # force a mid-run split + merge
//	proload -addr :7001,:7002,:7003,:7004 -scenario all -json out.json
//	proload -check -json out.json -scenario flash-crowd    # exit 1 on SLO fail
//	proload -inprocess 4 -scenario shard-crash-recovery -check  # chaos gate
//	proload -validate out.json                             # schema check only
//	proload -list                                          # print the matrix
//
// Chaos scenarios (load.FaultMatrix: shard-crash-recovery, replica-failover)
// kill and restart shards on a schedule; they require the in-process backend,
// which is built durable for them — per-shard WALs, warm replicas, and a
// hair-trigger failover threshold (docs/DURABILITY.md).
//
// The scenario matrix is defined in internal/load (docs/SCENARIOS.md);
// scripts/bench.sh merges proload JSON into the per-PR BENCH snapshot so CI
// gates on scenario-level regressions.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/edge"
	"repro/internal/elastic"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/wire"
)

func main() {
	var (
		addr         = flag.String("addr", "", "comma-separated shard addresses (one = single server, several = client-side cluster)")
		inprocess    = flag.Int("inprocess", 0, "build an in-process cluster with this many shards instead of dialing")
		edgeOn       = flag.Bool("edge", false, "route all workers through one in-process edge cache tier in front of the cluster (requires -inprocess)")
		nethop       = flag.Bool("nethop", false, "serve the in-process cluster over loopback TCP and cross it per request: workers dial it directly, or under -edge the edge forwards over a pipelined upstream pool while cache hits skip the hop (requires -inprocess)")
		objects      = flag.Int("objects", 20000, "in-process dataset cardinality")
		seed         = flag.Int64("seed", 1, "deterministic operation-stream seed")
		scenario     = flag.String("scenario", "baseline", "scenario names, comma-separated, or all")
		qps          = flag.Float64("qps", 2000, "open-loop target arrival rate (all workers combined)")
		duration     = flag.Duration("duration", 3*time.Second, "run length per scenario")
		users        = flag.Int("users", 1_000_000, "simulated user population")
		workers      = flag.Int("workers", 8, "pacing loops / connections (at most 128, so every worker's insert ids stay its own)")
		timeout      = flag.Duration("timeout", 2*time.Second, "latency above which a completed op also counts as a timeout")
		elasticOn    = flag.Bool("elastic", false, "run a load-driven rebalancer over the in-process cluster during each scenario: hot shards split online, cold sibling pairs merge back (requires -inprocess)")
		elasticForce = flag.Bool("elastic-force", false, "force one online shard split a third of the way into each run and the matching merge at two thirds; exit 1 if either did not complete (requires -inprocess)")
		splitObjects = flag.Int64("split-objects", 0, "rebalancer split threshold in objects per shard (0 derives twice the initial per-shard count)")
		jsonOut      = flag.String("json", "", "write the machine-readable report to this file (- for stdout)")
		check        = flag.Bool("check", false, "exit 1 when any scenario violates its SLO envelope")
		validate     = flag.String("validate", "", "validate an existing proload JSON report against the schema and exit")
		list         = flag.Bool("list", false, "print the scenario matrix and exit")
	)
	flag.Parse()

	if *list {
		for _, sp := range load.Matrix() {
			fmt.Printf("%-20s %s\n", sp.Name, sp.Description)
		}
		for _, sp := range load.FaultMatrix() {
			fmt.Printf("%-20s %s (chaos; needs -inprocess)\n", sp.Name, sp.Description)
		}
		return
	}
	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fatal(err)
		}
		if err := load.ValidateReport(data); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: schema ok\n", *validate)
		return
	}

	specs, err := pickScenarios(*scenario)
	if err != nil {
		fatal(err)
	}

	// Fault-free scenarios share one backend (connections and caches warm
	// across the matrix, as they would in production). Every chaos scenario
	// gets a freshly built durable cluster: faults permanently degrade one —
	// replication stops at the first kill — and a second scenario must not
	// inherit the wreckage of the first. Growth scenarios (GrowUpdates)
	// likewise get their own backend: they permanently inflate and skew the
	// dataset, which would silently slow every scenario that runs after
	// them in the matrix.
	var shared *backend
	defer func() {
		if shared != nil {
			shared.close()
		}
	}()
	acquire := func(sp load.Spec) (*backend, error) {
		if len(sp.Faults) > 0 {
			return connect(*addr, *inprocess, *objects, *seed, true, *edgeOn, *nethop)
		}
		if sp.GrowUpdates && *addr == "" {
			return connect(*addr, *inprocess, *objects, *seed, false, *edgeOn, *nethop)
		}
		if shared == nil {
			var err error
			if shared, err = connect(*addr, *inprocess, *objects, *seed, false, *edgeOn, *nethop); err != nil {
				shared = nil
				return nil, err
			}
		}
		return shared, nil
	}

	var results []*load.Result
	for _, sp := range specs {
		backend, err := acquire(sp)
		if err != nil {
			fatal(err)
		}
		if (*elasticOn || *elasticForce) && backend.cs == nil {
			fatal(fmt.Errorf("-elastic and -elastic-force drive online topology changes and need the in-process backend (-inprocess), not -addr"))
		}
		var rbStop func()
		if *elasticOn {
			rbStop = startRebalancer(backend.cs, *splitObjects)
		}
		var forceDone chan struct{}
		if *elasticForce {
			forceDone = forceElastic(backend.cs, *duration)
		}
		// Baseline for the post-stop re-sample below: the rebalancer can
		// land an operation between load.Run's own final sample and the
		// stop, so the authoritative delta is taken once it has halted.
		clusterSnap := backend.clusterStats()
		var clusterBase metrics.ClusterSnapshot
		if clusterSnap != nil {
			clusterBase = clusterSnap()
		}
		var events atomic.Int64
		r, err := load.Run(load.Config{
			Spec:         sp,
			TargetQPS:    *qps,
			Duration:     *duration,
			Users:        *users,
			Workers:      *workers,
			Seed:         *seed,
			Timeout:      *timeout,
			NewTransport: backend.newTransport,
			Release:      backend.release,
			Injector:     backend.injector(),
			Cluster:      clusterSnap,
			EdgeStats:    backend.edgeStats(),
			OnEvent: func(worker int, err error) {
				// A dead backend fails every paced op; log the first few and
				// then sample, the counters carry the full tally.
				if n := events.Add(1); n <= 10 || n%1000 == 0 {
					fmt.Fprintf(os.Stderr, "proload: worker %d: %v (event %d)\n", worker, err, n)
				}
			},
		})
		if rbStop != nil {
			rbStop()
		}
		if forceDone != nil {
			<-forceDone
		}
		if r != nil && clusterSnap != nil && (rbStop != nil || forceDone != nil) {
			r.FillClusterDeltas(clusterBase, clusterSnap())
		}
		if backend != shared {
			backend.close()
		}
		if err != nil {
			fatal(err)
		}
		if n := events.Load(); n > 10 {
			fmt.Fprintf(os.Stderr, "proload: %d failure events total (log sampled)\n", n)
		}
		if *elasticForce && (r.Splits == 0 || r.Merges == 0 || r.Errors > 0) {
			r.Fprint(os.Stdout)
			fatal(fmt.Errorf("elastic-force: scenario %q finished with splits=%d merges=%d errors=%d; want at least one split and one merge with zero protocol errors", sp.Name, r.Splits, r.Merges, r.Errors))
		}
		r.Fprint(os.Stdout)
		results = append(results, r)
	}

	if shared != nil && shared.edge != nil {
		fmt.Printf("%s\n", shared.edge.Stats().Snapshot())
	}

	if *jsonOut != "" {
		data, err := load.MarshalReports(results)
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatal(err)
		}
	}

	if *check {
		failed := 0
		for _, r := range results {
			if !r.Pass() {
				failed++
			}
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "proload: %d/%d scenarios violated their SLO\n", failed, len(results))
			os.Exit(1)
		}
	}
}

func pickScenarios(arg string) ([]load.Spec, error) {
	if arg == "all" {
		return load.Matrix(), nil
	}
	var specs []load.Spec
	for _, name := range strings.Split(arg, ",") {
		sp, err := load.Lookup(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// backend abstracts where requests go: a freshly built in-process cluster,
// or dialed TCP endpoints (redialed per worker on connection failure).
type backend struct {
	addrs    []string
	cs       *repro.ClusterServer
	edge     *edge.Edge // all workers share it, like one edge node would be shared
	walDir   string     // throwaway chaos WAL directory, removed on close
	ns       *wire.NetServer
	nsAddr   string // loopback address of the -nethop serving layer
	upstream *edge.UpstreamPool
	// dialStats is the one counter block every per-worker router over
	// addrs counts into.
	dialStats *metrics.ClusterStats
}

func connect(addr string, shards, objects int, seed int64, chaos, edgeOn, nethop bool) (*backend, error) {
	b := &backend{}
	if addr != "" {
		if chaos {
			return nil, fmt.Errorf("fault scenarios inject shard kills and need the in-process backend (-inprocess), not -addr")
		}
		if edgeOn {
			return nil, fmt.Errorf("-edge builds an in-process edge tier and needs the in-process backend (-inprocess), not -addr")
		}
		if nethop {
			return nil, fmt.Errorf("-nethop serves the in-process cluster over loopback and needs -inprocess, not -addr")
		}
		b.addrs = strings.Split(addr, ",")
		if len(b.addrs) > 1 {
			b.dialStats = metrics.NewClusterStats(len(b.addrs))
		}
		return b, nil
	}
	if chaos && nethop {
		return nil, fmt.Errorf("-nethop does not combine with fault scenarios (kills are injected behind the serving layer)")
	}
	if shards <= 0 {
		shards = 4
	}
	objs := repro.GenerateNE(objects, seed)
	cfg := repro.ClusterConfig{Shards: shards}
	if chaos {
		// Chaos runs need durable, failover-capable shards: throwaway
		// per-shard WALs (no fsync; the directory dies with the run), warm
		// replicas, and a hair trigger so a kill is absorbed within one
		// query's retry budget.
		dir, err := os.MkdirTemp("", "proload-wal-")
		if err != nil {
			return nil, err
		}
		b.walDir = dir
		cfg.WALDir = dir
		cfg.WALNoSync = true
		cfg.Replicas = true
		cfg.RetryAttempts = 4
		cfg.RetryBackoff = 2 * time.Millisecond
		cfg.FailThreshold = 1
	}
	cs, err := repro.NewClusterServer(objs, cfg)
	if err != nil {
		if b.walDir != "" {
			os.RemoveAll(b.walDir)
		}
		return nil, err
	}
	b.cs = cs
	if nethop {
		// Serve the cluster over loopback TCP so every upstream round trip
		// crosses a real wire hop: the direct baseline pays it per query,
		// the edge tier only on misses (docs/EDGE.md).
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.close()
			return nil, err
		}
		b.ns = cs.NetServer(repro.ServeOptions{})
		b.nsAddr = ln.Addr().String()
		go b.ns.Serve(ln)
	}
	if edgeOn {
		opts := repro.EdgeOptions{}
		if nethop {
			pool, err := edge.NewUpstreamPool(2, func() (wire.Transport, error) {
				bc, err := wire.Dial(b.nsAddr, wire.RoleEdge, 10*time.Second)
				if err != nil {
					return nil, err
				}
				return bc, nil
			})
			if err != nil {
				b.close()
				return nil, err
			}
			b.upstream = pool
			opts.Upstream = pool
		}
		eg, err := cs.Edge(opts)
		if err != nil {
			b.close()
			return nil, err
		}
		b.edge = eg
	}
	return b, nil
}

// injector exposes the in-process cluster's chaos surface; nil for dialed
// backends (Run rejects fault scenarios without one).
func (b *backend) injector() load.Injector {
	if b.cs == nil {
		return nil
	}
	return b.cs
}

// clusterStats samples the router counters behind the workers for the
// report; nil for a single dialed server.
func (b *backend) clusterStats() func() metrics.ClusterSnapshot {
	switch {
	case b.cs != nil:
		return b.cs.ClusterStats
	case b.dialStats != nil:
		return b.dialStats.Snapshot
	}
	return nil
}

// edgeStats exposes the edge tier's counter snapshot to the harness; nil
// when no edge tier fronts this backend.
func (b *backend) edgeStats() func() metrics.EdgeSnapshot {
	if b.edge == nil {
		return nil
	}
	return b.edge.Stats().Snapshot
}

// startRebalancer runs the load-driven rebalancer over the in-process
// cluster for one scenario; splitObjects 0 leaves both thresholds to
// StartRebalancer's build-time default. Returns the stop function.
func startRebalancer(cs *repro.ClusterServer, splitObjects int64) func() {
	_, stop, err := cs.StartRebalancer(elastic.Config{
		SplitObjects: splitObjects,
		MergeObjects: splitObjects / 4,
		Cooldown:     500 * time.Millisecond,
		Interval:     100 * time.Millisecond,
		OnEvent: func(ev elastic.Event) {
			fmt.Fprintf(os.Stderr, "proload: elastic %s shard=%d target=%d objects=%d err=%v\n",
				ev.Kind, ev.Shard, ev.Target, ev.Objects, ev.Err)
		},
	})
	if err != nil {
		fatal(err)
	}
	return stop
}

// forceElastic drives one deterministic split/merge cycle mid-run: the
// shard owning the most objects splits a third of the way in, and the pair
// folds back at two thirds — the CI smoke gate for online topology changes
// under live open-loop load. Failures are printed and left for the
// -elastic-force exit check to catch via the run's split/merge counters.
func forceElastic(cs *repro.ClusterServer, dur time.Duration) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(dur / 3)
		st := cs.Elastic().Stats()
		hot, best := -1, int64(-1)
		for _, s := range cs.LiveShards() {
			if n := st.Shard(s).Objects.Load(); n > best {
				hot, best = s, n
			}
		}
		if hot < 0 {
			return
		}
		if err := cs.SplitShard(hot); err != nil {
			fmt.Fprintf(os.Stderr, "proload: forced split of shard %d: %v\n", hot, err)
			return
		}
		fresh := cs.Shards() - 1
		fmt.Fprintf(os.Stderr, "proload: forced split of shard %d -> slot %d\n", hot, fresh)
		time.Sleep(dur / 3)
		s, ok := cs.SiblingOf(fresh)
		if !ok {
			fmt.Fprintf(os.Stderr, "proload: forced merge skipped: slot %d no longer has a sibling\n", fresh)
			return
		}
		if err := cs.MergeShards(s, fresh); err != nil {
			fmt.Fprintf(os.Stderr, "proload: forced merge of (%d,%d): %v\n", s, fresh, err)
			return
		}
		fmt.Fprintf(os.Stderr, "proload: forced merge of slot %d back into shard %d\n", fresh, s)
	}()
	return done
}

// newTransport hands a worker its connection: the shared in-process
// handler (through the shared edge tier under -edge), one dialed server,
// or a client-side cluster router counting into the shared dialStats.
func (b *backend) newTransport(worker int) (wire.Transport, error) {
	if b.edge != nil {
		return b.edge, nil
	}
	if b.nsAddr != "" {
		return repro.Dial(b.nsAddr)
	}
	if b.cs != nil {
		return b.cs.Transport(), nil
	}
	if len(b.addrs) == 1 {
		return repro.Dial(b.addrs[0])
	}
	return cluster.Dial(b.addrs, cluster.Config{Stats: b.dialStats})
}

func (b *backend) release(resp *wire.Response) {
	if b.nsAddr != "" {
		// Responses crossed the wire and were freshly decoded client-side;
		// they never came from the router pool. Leave them to the GC.
		return
	}
	if b.cs != nil {
		b.cs.ReleaseResponse(resp)
	}
}

func (b *backend) close() {
	if b.upstream != nil {
		b.upstream.Close()
	}
	if b.ns != nil {
		b.ns.Close()
	}
	if b.cs != nil {
		b.cs.Close()
	}
	if b.walDir != "" {
		os.RemoveAll(b.walDir)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "proload:", err)
	os.Exit(1)
}
