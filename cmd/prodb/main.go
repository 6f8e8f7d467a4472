// Command prodb serves a spatial dataset to proactive-caching clients over
// TCP, speaking the binary wire protocol: a handshake preamble, then framed
// messages with request pipelining (many queries in flight per connection,
// responses correlated by id). A connection that opens with anything but
// the preamble is closed. Clients connect with repro.Dial (see
// examples/netclient; docs/WIRE.md specifies handshake and framing).
//
// Every deployment is a cluster: -cluster N KD-partitions the dataset into
// N in-process shards behind one scatter-gather router, and the default of
// one shard is the single node. Durability applies at any shard count.
// The serving layer runs one
// goroutine per connection behind a connection limit and a bounded worker
// pool, reaps idle connections, and drains in-flight requests on
// SIGINT/SIGTERM before exiting.
//
// Usage:
//
//	prodb -addr :7001 -n 50000            # synthetic NE data, one shard
//	prodb -addr :7001 -load ne.gob        # dataset from datagen
//	prodb -cluster 4                      # 4 in-process spatial shards
//	prodb -form compact                   # CPRO-style index shipping
//	prodb -max-conns 8192 -inflight 64    # tune concurrency limits
//	prodb -pipeline 128                   # deeper per-connection pipelining
//	prodb -updates=false                  # read-only: reject wire updates
//	prodb -wal /var/lib/prodb             # durable shards (WAL + checkpoints)
//	prodb -stats 10s                      # periodic serving stats
//	prodb -pprof localhost:6060           # expose net/http/pprof for profiling
//
// See docs/PERF.md for a two-minute profiling recipe against -pprof.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/dataset"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is prodb over the given arguments and output streams. It returns the
// exit status: 2 for a bad flag (checked before any data is generated), 1
// when the server cannot start or its drain cut requests off.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prodb", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":7001", "listen address")
		n        = fs.Int("n", 50_000, "synthetic NE objects when -load is not given")
		seed     = fs.Int64("seed", 1, "synthetic data seed")
		load     = fs.String("load", "", "load a datagen .gob file instead of generating")
		form     = fs.String("form", "adaptive", "index shipping form: full, compact, adaptive")
		maxConns = fs.Int("max-conns", 0, "max concurrent connections (0 = default 4096)")
		inflight = fs.Int("inflight", 0, "max concurrently executing requests (0 = 4*GOMAXPROCS)")
		pipeline = fs.Int("pipeline", 0, "max requests in flight per binary connection (0 = default 64)")
		readTO   = fs.Duration("read-timeout", 0, "idle connection deadline (0 = default 5m)")
		updates  = fs.Bool("updates", true, "accept batched index updates from wire clients")
		clusterN = fs.Int("cluster", 1, fmt.Sprintf("spatial shards served behind one scatter-gather router, 1 to %d (1 = single node, see docs/CLUSTER.md)", cluster.MaxShards))
		walDir   = fs.String("wal", "", "per-shard WAL+checkpoint directory for crash recovery (empty = memory only)")
		statsEv  = fs.Duration("stats", 0, "print serving stats at this interval (0 = off)")
		drainTO  = fs.Duration("drain", 15*time.Second, "graceful shutdown drain timeout")
		pprofAt  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
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
		fmt.Fprintf(stderr, "prodb: unknown form %q\n", *form)
		return 2
	}
	if *clusterN < 1 || *clusterN > cluster.MaxShards {
		fmt.Fprintf(stderr, "prodb: -cluster %d is outside [1, %d]\n", *clusterN, cluster.MaxShards)
		return 2
	}

	if *pprofAt != "" {
		// The pprof handlers live on http.DefaultServeMux via the blank
		// import; serve them on a side listener so profiling never shares
		// a port with the query protocol.
		pln, err := net.Listen("tcp", *pprofAt)
		if err != nil {
			fmt.Fprintf(stderr, "prodb: pprof listen: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				fmt.Fprintf(stderr, "prodb: pprof: %v\n", err)
			}
		}()
	}

	var objects []repro.Object
	switch {
	case *load != "":
		ds, err := dataset.Load(*load)
		if err != nil {
			fmt.Fprintf(stderr, "prodb: %v\n", err)
			return 1
		}
		objects = ds.Objects
		fmt.Fprintf(stdout, "loaded %d objects from %s\n", len(objects), *load)
	default:
		objects = repro.GenerateNE(*n, *seed)
		fmt.Fprintf(stdout, "generated %d synthetic NE objects (seed %d)\n", len(objects), *seed)
	}

	start := time.Now()
	mode := "updates enabled"
	if !*updates {
		mode = "read-only"
	}
	opts := repro.ServeOptions{
		MaxConns:    *maxConns,
		MaxInflight: *inflight,
		MaxPipeline: *pipeline,
		ReadTimeout: *readTO,
	}
	cs, err := repro.NewClusterServer(objects, repro.ClusterConfig{
		Shards: *clusterN,
		Form:   indexForm,
		WALDir: *walDir,
	})
	if err != nil {
		fmt.Fprintf(stderr, "prodb: %v\n", err)
		return 1
	}
	// Deferred: the shards' update writers stop after the serving layer
	// drained.
	defer cs.Close()
	cs.SetRemoteUpdates(*updates)
	durable := ""
	if *walDir != "" {
		durable = fmt.Sprintf(", WAL at %s", *walDir)
	}
	fmt.Fprintf(stdout, "cluster: %d shards owning %v objects, built in %v (%s%s)\n",
		cs.Shards(), cs.ShardObjects(), time.Since(start).Round(time.Millisecond), mode, durable)
	net1 := cs.NetServer(opts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "prodb: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "serving proactive spatial queries on %s (form=%s)\n", ln.Addr(), *form)

	printStats := func(prefix string) {
		fmt.Fprintf(stdout, "%s %s\n", prefix, cs.Stats())
		fmt.Fprintf(stdout, "%s %s\n", prefix, cs.ClusterStats())
	}
	statsDone := make(chan struct{})
	if *statsEv > 0 {
		ticker := time.NewTicker(*statsEv)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					printStats("stats:")
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
		fmt.Fprintf(stdout, "\n%v: draining (up to %v)...\n", sig, *drainTO)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := net1.Shutdown(ctx); err != nil {
			// In-flight requests were force-closed; report the dirty
			// shutdown through the exit code for orchestrators.
			fmt.Fprintf(stderr, "prodb: shutdown: %v\n", err)
			exitCode = 1
		}
	case err := <-serveErr:
		close(statsDone)
		if err != nil {
			fmt.Fprintf(stderr, "prodb: %v\n", err)
			return 1
		}
	}
	printStats("final")
	return exitCode
}
