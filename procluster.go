package repro

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// ErrUpdatesDisabled is returned to wire clients shipping batched updates to
// a server running with remote updates disabled.
var ErrUpdatesDisabled = errors.New("repro: remote updates disabled")

// ServeOptions tunes the network serving layer (see wire.ServeConfig for
// field semantics). The zero value applies production defaults.
type ServeOptions struct {
	// MaxConns caps concurrently open connections (default 4096).
	MaxConns int
	// MaxInflight caps concurrently executing requests (default
	// 4*GOMAXPROCS).
	MaxInflight int
	// MaxPipeline caps requests in flight on one binary connection
	// (default 64).
	MaxPipeline int
	// ReadTimeout reaps connections idle between requests (default 5m;
	// negative disables). Dialed transports do not reconnect: a client
	// that may sit idle longer than this must either send periodic
	// Sync heartbeats, redial on error, or be served with a negative
	// ReadTimeout.
	ReadTimeout time.Duration
}

// ClusterConfig parameterizes NewClusterServer.
type ClusterConfig struct {
	// Shards is the number of spatial shards; default 4, max
	// cluster.MaxShards (255). One shard is the single node.
	Shards int
	// Form selects every shard's supporting-index representation; default
	// adaptive. Pages are the paper's 4 KB of 20-byte entries
	// (rtree.DefaultParams) bulk-loaded to 70% fill, and the adaptive s is
	// 0.20 (Table 6.1).
	Form IndexForm

	// WALDir enables per-shard durability: shard s write-ahead-logs every
	// applied update batch under WALDir/shard-<s> and checkpoints its
	// packed image periodically, and Kill/Restart crash-recovers shards
	// from those logs (docs/DURABILITY.md). Empty disables durability.
	WALDir string
	// WALNoSync skips the per-batch fsync. For harnesses and CI on
	// throwaway directories only — a crash can lose unsynced batches.
	WALNoSync bool
}

// ClusterServer is a spatially sharded spatial database behind one
// endpoint: the dataset is KD-partitioned into N in-process shard servers,
// and a cluster.Router serves the whole wire protocol over them —
// scatter-gathering queries, routing updates to owning shards, and
// re-keying node ids and epochs into the virtual namespace clients see
// (docs/CLUSTER.md). A single node is a one-shard cluster, and it gets the
// same WAL, crash recovery and online split as any other. Query
// execution never locks an index: queries pin an immutable snapshot while
// each shard's single writer batches updates and publishes fresh ones
// (docs/UPDATES.md). Start one with prodb -cluster N.
type ClusterServer struct {
	cluster       *cluster.InProcess
	stats         metrics.ServerStats
	remoteUpdates atomic.Bool
}

// NewClusterServer partitions the objects into cfg.Shards spatial shards,
// indexes each, and stands up the scatter-gather router over them. Every
// shard must receive at least one object; datasets smaller than the shard
// count should shard less.
func NewClusterServer(objects []Object, cfg ClusterConfig) (*ClusterServer, error) {
	p, err := cluster.NewInProcess(objects, cluster.InProcessConfig{
		Shards: cfg.Shards,
		Server: server.Config{Form: cfg.Form},
		Sizer:  buildSizer(objects),
		WALDir: cfg.WALDir,
		WAL:    wal.Options{NoSync: cfg.WALNoSync},
	})
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	cs := &ClusterServer{cluster: p}
	cs.remoteUpdates.Store(true)
	return cs, nil
}

// buildSizer returns the build-time size lookup the shards run once per
// result object: a table indexed by id, since every generator and loader
// issues ids 1..N, or a map when ids are sparse or a size overflows int32.
// An id that was never built reports 0 either way.
func buildSizer(objects []Object) server.ObjectSizer {
	maxID, fits := ObjectID(0), true
	for _, o := range objects {
		maxID = max(maxID, o.ID)
		fits = fits && int(int32(o.Size)) == o.Size
	}
	if !fits || uint64(maxID) > 2*uint64(len(objects)) {
		sizes := make(map[ObjectID]int, len(objects))
		for _, o := range objects {
			sizes[o.ID] = o.Size
		}
		return func(id ObjectID) int { return sizes[id] }
	}
	table := make([]int32, int(maxID)+1)
	for _, o := range objects {
		table[o.ID] = int32(o.Size)
	}
	return func(id ObjectID) int {
		if int(id) < len(table) {
			return int(table[id])
		}
		return 0
	}
}

// SetRemoteUpdates enables or disables wire-level batched updates
// (Request.Updates). Enabled by default; a read-only deployment (cmd/prodb
// -updates=false) answers update requests with ErrUpdatesDisabled.
func (cs *ClusterServer) SetRemoteUpdates(on bool) { cs.remoteUpdates.Store(on) }

// Handler returns the cluster's request handler: queries scatter-gather,
// updates route to owning shards.
func (cs *ClusterServer) Handler() wire.Handler {
	return func(req *wire.Request) (*wire.Response, error) {
		if len(req.Updates) > 0 && !cs.remoteUpdates.Load() {
			return nil, ErrUpdatesDisabled
		}
		return cs.cluster.Router.RoundTrip(req)
	}
}

// Transport returns an in-process transport to the cluster; it is safe for
// concurrent use.
func (cs *ClusterServer) Transport() Transport {
	return wire.TransportFunc(cs.Handler())
}

// NetServer builds the concurrent TCP serving layer over the cluster: a
// goroutine per connection behind a connection limit, a bounded worker pool
// for request execution, idle-connection reaping, and graceful Shutdown.
// Serving statistics accumulate in Stats.
func (cs *ClusterServer) NetServer(opts ServeOptions) *wire.NetServer {
	return wire.NewNetServer(cs.Handler(), wire.ServeConfig{
		MaxConns:    opts.MaxConns,
		MaxInflight: opts.MaxInflight,
		MaxPipeline: opts.MaxPipeline,
		ReadTimeout: opts.ReadTimeout,
		Stats:       &cs.stats,
		Release:     cs.cluster.Router.ReleaseResponse,
	})
}

// Serve answers clients on a listener with default options until the
// listener closes. It blocks; use NetServer for shutdown control.
func (cs *ClusterServer) Serve(ln net.Listener) error {
	if err := cs.NetServer(ServeOptions{}).Serve(ln); err != nil && err != wire.ErrServerClosed {
		return fmt.Errorf("repro: cluster serve: %w", err)
	}
	return nil
}

// Stats returns the serving-layer counters (connections, requests,
// latency quantiles) of the cluster endpoint.
func (cs *ClusterServer) Stats() metrics.ServerSnapshot { return cs.stats.Snapshot() }

// ClusterStats returns the router's scatter-gather counters: fan-out,
// single-shard fast-path hits, kNN re-issues, cross-shard join scans,
// per-shard sub-query totals, and which shards have latched a WAL failure.
func (cs *ClusterServer) ClusterStats() metrics.ClusterSnapshot {
	return cs.cluster.Router.Snapshot()
}

// ReleaseResponse recycles a response obtained from Handler or Transport
// into the router's pool (the serving layer does this automatically).
func (cs *ClusterServer) ReleaseResponse(resp *wire.Response) {
	cs.cluster.Router.ReleaseResponse(resp)
}

// Kill crash-stops one shard (chaos testing): every update it acked is in
// its WAL, and it is down until Restart. A request to a down shard waits
// 30–45 ms for the restart before it fails. Requires ClusterConfig.WALDir
// for Restart to work.
func (cs *ClusterServer) Kill(shard int) { cs.cluster.Kill(shard) }

// Restart recovers a killed shard from its WAL (checkpoint + tail replay)
// and returns it to service: the router's next round trip to the shard
// reaches it.
func (cs *ClusterServer) Restart(shard int) error { return cs.cluster.Restart(shard) }

// Shards returns the shard slot count, dead slots included. Splits grow it;
// merges retire slots without renumbering, so it never shrinks. LiveShards
// lists the slots that currently own a region.
func (cs *ClusterServer) Shards() int { return cs.cluster.Router.Shards() }

// LiveShards returns the ordinals of the slots currently owning a region.
func (cs *ClusterServer) LiveShards() []int { return cs.cluster.LiveShards() }

// SiblingOf returns the slot sharing s's KD parent when both are leaves —
// the only pair MergeShards accepts.
func (cs *ClusterServer) SiblingOf(s int) (int, bool) { return cs.cluster.SiblingOf(s) }

// SplitShard splits shard s online: the split plane re-runs KD partitioning
// over s's live objects, the upper half bulk-transfers to a freshly spawned
// shard as a packed image plus update tail, and the router cuts over behind
// an epoch fence — clients keep their caches modulo the crossing
// invalidation window (docs/ELASTIC.md).
func (cs *ClusterServer) SplitShard(s int) error {
	if err := cs.cluster.SplitShard(s); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}

// MergeShards folds shard t back into its KD sibling s and retires t's
// slot. Merging re-keys every object in t, so it flushes all client caches
// (FlushAll on their next catalog).
func (cs *ClusterServer) MergeShards(s, t int) error {
	if err := cs.cluster.MergeShards(s, t); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}

// ShardObjects returns how many objects each shard slot owns now, one
// entry per slot: the router's live per-shard gauge, which follows acked
// inserts and deletes, splits and merges, and 0 for a slot whose region was
// merged away.
func (cs *ClusterServer) ShardObjects() []int {
	per := cs.cluster.Router.Snapshot().PerShard
	out := make([]int, len(per))
	for i, sh := range per {
		if !sh.Dead {
			out[i] = int(sh.Objects)
		}
	}
	return out
}

// Close stops every shard's background update writer, waiting for queued
// batches to be applied.
func (cs *ClusterServer) Close() { cs.cluster.Close() }
