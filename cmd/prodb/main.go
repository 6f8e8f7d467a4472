// Command prodb serves a spatial dataset to proactive-caching clients over
// TCP, speaking the binary wire protocol: a handshake preamble, then framed
// messages with request pipelining (many queries in flight per connection,
// responses correlated by id). A connection that opens with anything but
// the preamble is closed. Clients connect with repro.Dial (see
// examples/netclient; docs/WIRE.md specifies handshake and framing).
//
// The serving layer runs one goroutine per connection behind a connection
// limit and a bounded worker pool, reaps idle connections, and drains
// in-flight requests on SIGINT/SIGTERM before exiting.
//
// Usage:
//
//	prodb -addr :7001 -n 50000            # synthetic NE data
//	prodb -addr :7001 -load ne.gob        # dataset from datagen
//	prodb -cluster 4                      # 4 in-process spatial shards
//	prodb -form compact                   # CPRO-style index shipping
//	prodb -max-conns 8192 -inflight 64    # tune concurrency limits
//	prodb -pipeline 128                   # deeper per-connection pipelining
//	prodb -updates=false                  # read-only: reject wire updates
//	prodb -follower                       # warm standby: primary-only updates
//	prodb -cluster 4 -wal /var/lib/prodb  # durable shards (WAL + checkpoints)
//	prodb -cluster 4 -replicas            # warm standby per shard
//	prodb -cluster 4 -elastic             # online split/merge rebalancing
//	prodb -stats 10s                      # periodic serving stats
//	prodb -pprof localhost:6060           # expose net/http/pprof for profiling
//
// See docs/PERF.md for a two-minute profiling recipe against -pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/metrics"
	"repro/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", ":7001", "listen address")
		n        = flag.Int("n", 50_000, "synthetic NE objects when -load is not given")
		seed     = flag.Int64("seed", 1, "synthetic data seed")
		load     = flag.String("load", "", "load a datagen .gob file instead of generating")
		form     = flag.String("form", "adaptive", "index shipping form: full, compact, adaptive")
		maxConns = flag.Int("max-conns", 0, "max concurrent connections (0 = default 4096)")
		inflight = flag.Int("inflight", 0, "max concurrently executing requests (0 = 4*GOMAXPROCS)")
		pipeline = flag.Int("pipeline", 0, "max requests in flight per binary connection (0 = default 64)")
		readTO   = flag.Duration("read-timeout", 0, "idle connection deadline (0 = default 5m)")
		updates  = flag.Bool("updates", true, "accept batched index updates from wire clients")
		follower = flag.Bool("follower", false, "warm-standby mode: only a primary's replication stream may send updates (single node only, see docs/DURABILITY.md)")
		clusterN = flag.Int("cluster", 1, "spatial shards served behind one scatter-gather router (1 = single node, see docs/CLUSTER.md)")
		edgeMode = flag.Bool("edge", false, "cluster mode: serve through an edge cache tier — popular range/kNN queries answered from a partition-cell-keyed cache, invalidated off the cluster's epoch stream (docs/EDGE.md)")
		edgeSync = flag.Duration("edge-sync", 250*time.Millisecond, "edge mode: time floor on the invalidation subscription (0 = evidence/update-driven only)")
		walDir   = flag.String("wal", "", "cluster mode: per-shard WAL+checkpoint directory for crash recovery (empty = memory only)")
		replicas = flag.Bool("replicas", false, "cluster mode: run a warm standby per shard for transparent failover")
		elastOn  = flag.Bool("elastic", false, "cluster mode: run the load-driven rebalancer — hot shards split online, cold sibling pairs merge back (docs/ELASTIC.md)")
		splitAt  = flag.Int64("split-objects", 0, "elastic mode: split a shard at this object count (0 derives twice the initial per-shard count)")
		statsEv  = flag.Duration("stats", 0, "print serving stats at this interval (0 = off)")
		drainTO  = flag.Duration("drain", 15*time.Second, "graceful shutdown drain timeout")
		pprofAt  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	)
	flag.Parse()

	if *pprofAt != "" {
		// The pprof handlers live on http.DefaultServeMux via the blank
		// import; serve them on a side listener so profiling never shares
		// a port with the query protocol.
		pln, err := net.Listen("tcp", *pprofAt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prodb: pprof listen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "prodb: pprof: %v\n", err)
			}
		}()
	}

	// Validate flags before paying for dataset generation.
	var indexForm repro.IndexForm
	switch *form {
	case "full":
		indexForm = repro.FullForm
	case "compact":
		indexForm = repro.CompactForm
	case "adaptive":
		indexForm = repro.AdaptiveForm
	default:
		fmt.Fprintf(os.Stderr, "prodb: unknown form %q\n", *form)
		os.Exit(2)
	}

	if *follower && *clusterN > 1 {
		fmt.Fprintln(os.Stderr, "prodb: -follower is a single-node mode; a cluster's replicas are managed by -replicas")
		os.Exit(2)
	}
	if (*walDir != "" || *replicas) && *clusterN <= 1 {
		fmt.Fprintln(os.Stderr, "prodb: -wal and -replicas require -cluster N (single-node durability is not served yet)")
		os.Exit(2)
	}
	if *elastOn && *clusterN <= 1 {
		fmt.Fprintln(os.Stderr, "prodb: -elastic requires -cluster N (a single node has nothing to split)")
		os.Exit(2)
	}
	if *edgeMode && *clusterN <= 1 {
		fmt.Fprintln(os.Stderr, "prodb: -edge requires -cluster N (the cache is keyed by the cluster's partition cells)")
		os.Exit(2)
	}

	var objects []repro.Object
	switch {
	case *load != "":
		ds, err := dataset.Load(*load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prodb: %v\n", err)
			os.Exit(1)
		}
		objects = ds.Objects
		fmt.Printf("loaded %d objects from %s\n", len(objects), *load)
	default:
		objects = repro.GenerateNE(*n, *seed)
		fmt.Printf("generated %d synthetic NE objects (seed %d)\n", len(objects), *seed)
	}

	start := time.Now()
	mode := "updates enabled"
	if !*updates {
		mode = "read-only"
	}
	if *follower {
		mode = "follower (replication-stream updates only)"
	}
	opts := repro.ServeOptions{
		MaxConns:    *maxConns,
		MaxInflight: *inflight,
		MaxPipeline: *pipeline,
		ReadTimeout: *readTO,
	}
	// Both deployment shapes serve the identical wire protocol; clients
	// cannot tell a cluster router from a single node.
	var (
		net1         *wire.NetServer
		statsFn      func() metrics.ServerSnapshot
		clusterStats func() metrics.ClusterSnapshot
		edgeStats    func() metrics.EdgeSnapshot
		closeFn      func()
	)
	if *clusterN > 1 {
		cs, err := repro.NewClusterServer(objects, repro.ClusterConfig{
			Shards:   *clusterN,
			Form:     indexForm,
			WALDir:   *walDir,
			Replicas: *replicas,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "prodb: %v\n", err)
			os.Exit(1)
		}
		cs.SetRemoteUpdates(*updates)
		durable := ""
		if *walDir != "" {
			durable = fmt.Sprintf(", WAL at %s", *walDir)
		}
		if *replicas {
			durable += ", warm replicas"
		}
		fmt.Printf("cluster: %d shards owning %v objects, built in %v (%s%s)\n",
			cs.Shards(), cs.ShardObjects(), time.Since(start).Round(time.Millisecond), mode, durable)
		if *edgeMode {
			eg, err := cs.Edge(repro.EdgeOptions{SyncInterval: *edgeSync})
			if err != nil {
				fmt.Fprintf(os.Stderr, "prodb: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("edge: cache tier over %d partition cells (sync floor %v)\n", cs.Shards(), *edgeSync)
			net1 = cs.EdgeNetServer(eg, opts)
			edgeStats = eg.Stats().Snapshot
		} else {
			net1 = cs.NetServer(opts)
		}
		if *elastOn {
			_, stopRb, err := cs.StartRebalancer(elastic.Config{
				SplitObjects: *splitAt,
				MergeObjects: *splitAt / 4,
				Cooldown:     5 * time.Second,
				Interval:     time.Second,
				OnEvent: func(ev elastic.Event) {
					fmt.Printf("elastic: %s shard=%d objects=%d qps=%.0f err=%v\n",
						ev.Kind, ev.Shard, ev.Objects, ev.QPS, ev.Err)
				},
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "prodb: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("elastic: rebalancer online (-split-objects %d)\n", *splitAt)
			csClose := cs.Close
			closeFn = func() { stopRb(); csClose() }
		} else {
			closeFn = cs.Close
		}
		statsFn = cs.Stats
		clusterStats = cs.ClusterStats
	} else {
		srv := repro.NewServer(objects, repro.ServerConfig{Form: indexForm})
		srv.SetRemoteUpdates(*updates)
		srv.SetFollower(*follower)
		st := srv.IndexStats()
		fmt.Printf("index: %d nodes, height %d, %.0f%% fill, built in %v (%s)\n",
			st.Nodes, st.Height, st.AvgFill*100, time.Since(start).Round(time.Millisecond), mode)
		net1 = srv.NetServer(opts)
		statsFn = srv.Stats
		closeFn = srv.Close
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prodb: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("serving proactive spatial queries on %s (form=%s)\n", ln.Addr(), *form)

	statsDone := make(chan struct{})
	if *statsEv > 0 {
		ticker := time.NewTicker(*statsEv)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					fmt.Printf("stats: %s\n", statsFn())
					if clusterStats != nil {
						fmt.Printf("stats: %s\n", clusterStats())
					}
					if edgeStats != nil {
						fmt.Printf("stats: %s\n", edgeStats())
					}
				case <-statsDone:
					return
				}
			}
		}()
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- net1.Serve(ln) }()

	exitCode := 0
	select {
	case sig := <-sigCh:
		close(statsDone) // keep stats lines out of the drain log
		fmt.Printf("\n%v: draining (up to %v)...\n", sig, *drainTO)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := net1.Shutdown(ctx); err != nil {
			// In-flight requests were force-closed; report the dirty
			// shutdown through the exit code for orchestrators.
			fmt.Fprintf(os.Stderr, "prodb: shutdown: %v\n", err)
			exitCode = 1
		}
	case err := <-serveErr:
		close(statsDone)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prodb: %v\n", err)
			os.Exit(1)
		}
	}
	closeFn() // stop the update writers after the serving layer drained
	fmt.Printf("final %s\n", statsFn())
	if clusterStats != nil {
		fmt.Printf("final %s\n", clusterStats())
	}
	if edgeStats != nil {
		fmt.Printf("final %s\n", edgeStats())
	}
	os.Exit(exitCode)
}
