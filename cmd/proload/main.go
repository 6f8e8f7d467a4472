// Command proload is the open-loop load generator: it drives a spatial
// database endpoint — one live TCP endpoint (a prodb, with or without
// -cluster), or an in-process cluster it builds itself — at a target
// arrival rate with millions of hash-derived simulated mobile users, every
// operation a cold wire request, and reports SLO-style results (p50/p99/p999, achieved vs target QPS, error
// and shed counts, byte accounting) per scenario, humanly and as JSON.
//
// Usage:
//
//	proload -inprocess 4 -scenario baseline -qps 5000 -duration 5s
//	proload -inprocess 4 -elastic-force -scenario baseline # force a mid-run split + merge
//	proload -addr :7001 -scenario all -json out.json        # a running prodb
//	proload -check -json out.json -scenario flash-crowd    # exit 1 on SLO fail
//	proload -inprocess 4 -scenario shard-crash-recovery -check  # chaos gate
//	proload -validate out.json                             # schema check only
//	proload -list                                          # print the matrix
//
// Chaos scenarios (load.FaultMatrix: shard-crash-recovery) crash-restart
// shards on a schedule; they require the in-process backend, which is built
// durable for them with per-shard WALs (docs/DURABILITY.md).
//
// The scenario matrix is defined in internal/load (docs/SCENARIOS.md);
// scripts/bench.sh merges proload JSON into the per-PR BENCH snapshot so CI
// gates on scenario-level regressions.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/wire"
)

func main() {
	var (
		addr         = flag.String("addr", "", "dial this one endpoint: a prodb, or a prodb -cluster serving every shard behind its router")
		inprocess    = flag.Int("inprocess", 0, "build an in-process cluster with this many shards instead of dialing")
		objects      = flag.Int("objects", 20000, "in-process dataset cardinality")
		seed         = flag.Int64("seed", 1, "deterministic operation-stream seed")
		scenario     = flag.String("scenario", "baseline", "scenario names, comma-separated, or all")
		qps          = flag.Float64("qps", 2000, "open-loop target arrival rate (all workers combined)")
		duration     = flag.Duration("duration", 3*time.Second, "run length per scenario")
		users        = flag.Int("users", 1_000_000, "simulated user population")
		workers      = flag.Int("workers", 8, "pacing loops / connections (at most 128, so every worker's insert ids stay its own)")
		timeout      = flag.Duration("timeout", 2*time.Second, "latency above which a completed op also counts as a timeout")
		elasticForce = flag.Bool("elastic-force", false, "force one online shard split a third of the way into each run and the matching merge at two thirds; exit 1 if either did not complete (requires -inprocess)")
		jsonOut      = flag.String("json", "", "write the machine-readable report to this file (- for stdout)")
		check        = flag.Bool("check", false, "exit 1 when any scenario violates its SLO envelope")
		validate     = flag.String("validate", "", "validate an existing proload JSON report against the schema and exit")
		list         = flag.Bool("list", false, "print the scenario matrix and exit")
	)
	flag.Parse()
	if strings.Contains(*addr, ",") {
		fmt.Fprintln(os.Stderr, "proload: -addr takes one endpoint; serve a sharded dataset behind one address with prodb -cluster N")
		os.Exit(2)
	}

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
	// gets a freshly built durable cluster, so its counters and WALs start
	// clean and a second scenario does not run on the first one's crashed
	// and restarted shards. Growth scenarios (GrowUpdates)
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
			return connect(*addr, *inprocess, *objects, *seed, true)
		}
		if sp.GrowUpdates && *addr == "" {
			return connect(*addr, *inprocess, *objects, *seed, false)
		}
		if shared == nil {
			var err error
			if shared, err = connect(*addr, *inprocess, *objects, *seed, false); err != nil {
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
		if *elasticForce && backend.cs == nil {
			fatal(fmt.Errorf("-elastic-force drives online topology changes and needs the in-process backend (-inprocess), not -addr"))
		}
		var forceDone chan struct{}
		if *elasticForce {
			forceDone = forceElastic(backend.cs, *duration)
		}
		// Baseline for the re-sample after the run: the forced cycle can
		// land an operation after load.Run's own final sample, so the
		// authoritative delta is taken once the cycle has finished.
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
			OnEvent: func(worker int, err error) {
				// A dead backend fails every paced op; log the first few and
				// then sample, the counters carry the full tally.
				if n := events.Add(1); n <= 10 || n%1000 == 0 {
					fmt.Fprintf(os.Stderr, "proload: worker %d: %v (event %d)\n", worker, err, n)
				}
			},
		})
		if forceDone != nil {
			<-forceDone
		}
		if r != nil && clusterSnap != nil && forceDone != nil {
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
// or one dialed TCP endpoint (redialed per worker on connection failure).
type backend struct {
	addr   string // the dialed endpoint (-addr)
	cs     *repro.ClusterServer
	walDir string // throwaway chaos WAL directory, removed on close
}

// connect builds the backend for one scenario. chaos asks for durable
// shards, which a fault schedule needs: it crash-restarts them from their
// WALs.
func connect(addr string, shards, objects int, seed int64, chaos bool) (*backend, error) {
	b := &backend{addr: addr}
	if addr != "" {
		if chaos {
			return nil, fmt.Errorf("fault scenarios inject shard kills and need the in-process backend (-inprocess), not -addr")
		}
		return b, nil
	}
	if shards <= 0 {
		shards = 4
	}
	objs := repro.GenerateNE(objects, seed)
	cfg := repro.ClusterConfig{Shards: shards}
	if chaos {
		// Chaos runs need durable shards: throwaway per-shard WALs (no
		// fsync; the directory dies with the run).
		dir, err := os.MkdirTemp("", "proload-wal-")
		if err != nil {
			return nil, err
		}
		b.walDir = dir
		cfg.WALDir = dir
		cfg.WALNoSync = true
	}
	cs, err := repro.NewClusterServer(objs, cfg)
	if err != nil {
		if b.walDir != "" {
			os.RemoveAll(b.walDir)
		}
		return nil, err
	}
	b.cs = cs
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
// report; nil for -addr, whose router (if any) runs in another process.
func (b *backend) clusterStats() func() metrics.ClusterSnapshot {
	if b.cs == nil {
		return nil
	}
	return b.cs.ClusterStats
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
		objs := cs.ShardObjects()
		hot, best := -1, -1
		for _, s := range cs.LiveShards() {
			if objs[s] > best {
				hot, best = s, objs[s]
			}
		}
		if hot < 0 {
			return
		}
		start, fenced := time.Now(), cs.ClusterStats().HandoverNanos
		if err := cs.SplitShard(hot); err != nil {
			fmt.Fprintf(os.Stderr, "proload: forced split of shard %d: %v\n", hot, err)
			return
		}
		fresh := cs.Shards() - 1
		fmt.Fprintf(os.Stderr, "proload: forced split of shard %d -> slot %d in %v (fenced %v)\n", hot, fresh,
			time.Since(start).Round(time.Millisecond), time.Duration(cs.ClusterStats().HandoverNanos-fenced).Round(time.Microsecond))
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

// newTransport hands a worker its connection: its own dial of the one
// endpoint, or the shared in-process handler.
func (b *backend) newTransport(worker int) (wire.Transport, error) {
	if b.addr != "" {
		return repro.Dial(b.addr)
	}
	return b.cs.Transport(), nil
}

func (b *backend) release(resp *wire.Response) {
	if b.addr != "" {
		// Responses crossed the wire and were freshly decoded client-side;
		// they never came from the router pool. Leave them to the GC.
		return
	}
	b.cs.ReleaseResponse(resp)
}

func (b *backend) close() {
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
