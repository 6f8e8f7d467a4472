package repro

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/edge"
	"repro/internal/elastic"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// ClusterConfig parameterizes NewClusterServer.
type ClusterConfig struct {
	// Shards is the number of spatial shards; default 4, max
	// cluster.MaxShards (255).
	Shards int
	// Form applies to every shard exactly as in ServerConfig.
	Form IndexForm

	// WALDir enables per-shard durability: shard s write-ahead-logs every
	// applied update batch under WALDir/shard-<s> and checkpoints its
	// packed image periodically, and Kill/Restart crash-recovers shards
	// from those logs (docs/DURABILITY.md). Empty disables durability.
	WALDir string
	// WALNoSync skips the per-batch fsync. For harnesses and CI on
	// throwaway directories only — a crash can lose unsynced batches.
	WALNoSync bool
	// Replicas runs one warm standby per shard, fed the primary's acked
	// batches, which the router promotes when the primary stays dead.
	Replicas bool
	// RetryAttempts, RetryBackoff and FailThreshold tune the router's
	// transient-failure retry and its failover trigger (zero = defaults;
	// see cluster.Config).
	RetryAttempts int
	RetryBackoff  time.Duration
	FailThreshold int
}

// ClusterServer is a spatially sharded spatial database behind one
// endpoint: the dataset is KD-partitioned into N in-process single-node
// servers, and a cluster.Router serves the whole wire protocol over them —
// scatter-gathering queries, routing updates to owning shards, and
// re-keying node ids and epochs into the virtual namespace clients see —
// so proactive-caching clients drive it exactly like a single Server
// (docs/CLUSTER.md). Start one with prodb -cluster N.
type ClusterServer struct {
	cluster       *cluster.InProcess
	stats         metrics.ServerStats
	remoteUpdates atomic.Bool

	// edgeMu guards edges: every edge tier built over this cluster, so
	// topology changes can rebind their partition cells (edge.Repartition).
	edgeMu sync.Mutex
	edges  []*edge.Edge
}

// NewClusterServer partitions the objects into cfg.Shards spatial shards,
// indexes each, and stands up the scatter-gather router over them. Every
// shard must receive at least one object; datasets smaller than the shard
// count should shard less.
func NewClusterServer(objects []Object, cfg ClusterConfig) (*ClusterServer, error) {
	p, err := cluster.NewInProcess(objects, cluster.InProcessConfig{
		Shards:        cfg.Shards,
		Server:        server.Config{Form: cfg.Form},
		Sizer:         buildSizer(objects),
		WALDir:        cfg.WALDir,
		WAL:           wal.Options{NoSync: cfg.WALNoSync},
		Replicas:      cfg.Replicas,
		RetryAttempts: cfg.RetryAttempts,
		RetryBackoff:  cfg.RetryBackoff,
		FailThreshold: cfg.FailThreshold,
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

// SetRemoteUpdates enables or disables wire-level batched updates, exactly
// like Server.SetRemoteUpdates. Enabled by default.
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

// NetServer builds the concurrent TCP serving layer over the cluster, with
// the same options and semantics as Server.NetServer.
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
// single-shard fast-path hits, kNN re-issues, cross-shard join scans, and
// per-shard sub-query totals.
func (cs *ClusterServer) ClusterStats() metrics.ClusterSnapshot {
	return cs.cluster.Router.Stats().Snapshot()
}

// ReleaseResponse recycles a response obtained from Handler or Transport
// into the router's pool (the serving layer does this automatically).
func (cs *ClusterServer) ReleaseResponse(resp *wire.Response) {
	cs.cluster.Router.ReleaseResponse(resp)
}

// Kill crash-stops one shard (chaos testing): its transport fails
// immediately and the router rides it out via retry, replica promotion, or
// redial after Restart. Requires ClusterConfig.WALDir for Restart to work.
func (cs *ClusterServer) Kill(shard int) { cs.cluster.Kill(shard) }

// Restart recovers a killed shard from its WAL (checkpoint + tail replay)
// and returns it to service; the router's next redial binds to it.
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
// invalidation window (docs/ELASTIC.md). Any edge tiers built by Edge are
// repartitioned onto the new cut.
func (cs *ClusterServer) SplitShard(s int) error {
	if err := cs.cluster.SplitShard(s); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	cs.repartitionEdges()
	return nil
}

// MergeShards folds shard t back into its KD sibling s and retires t's
// slot. Merging re-keys every object in t, so it flushes all client caches
// (FlushAll on their next catalog); the rebalancer only merges clearly cold
// pairs for this reason.
func (cs *ClusterServer) MergeShards(s, t int) error {
	if err := cs.cluster.MergeShards(s, t); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	cs.repartitionEdges()
	return nil
}

// repartitionEdges rebinds every edge tier to the current partition after a
// topology change: hotness cells follow the new cut and entries admitted
// under a boundary that moved are dropped.
func (cs *ClusterServer) repartitionEdges() {
	part := cs.cluster.Router.Partition()
	cs.edgeMu.Lock()
	edges := append([]*edge.Edge(nil), cs.edges...)
	cs.edgeMu.Unlock()
	for _, e := range edges {
		_ = e.Repartition(part.Locate, part.Shards())
	}
}

// elasticView adapts the cluster facade to elastic.Cluster. It is a
// separate view because ClusterServer.Stats already names the serving-layer
// snapshot; the rebalancer needs the live router counters.
type elasticView struct{ cs *ClusterServer }

func (v elasticView) LiveShards() []int            { return v.cs.LiveShards() }
func (v elasticView) SiblingOf(s int) (int, bool)  { return v.cs.SiblingOf(s) }
func (v elasticView) SplitShard(s int) error       { return v.cs.SplitShard(s) }
func (v elasticView) MergeShards(s, t int) error   { return v.cs.MergeShards(s, t) }
func (v elasticView) Stats() *metrics.ClusterStats { return v.cs.cluster.Stats() }

// Elastic returns the topology surface the load-driven rebalancer drives
// (elastic.New): live slots, sibling pairs, online split/merge, and the
// router counters the policy reads. Operations through this view also
// repartition any edge tiers.
func (cs *ClusterServer) Elastic() elastic.Cluster { return elasticView{cs} }

// StartRebalancer runs a load-driven rebalancer over this cluster in a
// background goroutine: shards whose object count crosses the split
// threshold are split, cold sibling pairs are folded back
// (docs/ELASTIC.md). A cfg with no SplitObjects splits a shard at twice the
// mean build-time shard size (ShardObjects) and merges a sibling pair below
// a quarter of that. The returned stop function halts it; the
// Rebalancer is returned for its Splits/Merges counters.
func (cs *ClusterServer) StartRebalancer(cfg elastic.Config) (*elastic.Rebalancer, func(), error) {
	if cfg.SplitObjects <= 0 {
		total := 0
		for _, n := range cs.cluster.Counts {
			total += n
		}
		cfg.SplitObjects = 2*int64(total)/int64(len(cs.cluster.Counts)) + 1
		cfg.MergeObjects = cfg.SplitObjects / 4
	}
	rb, err := elastic.New(cs.Elastic(), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("repro: %w", err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rb.Run(stop)
	}()
	return rb, func() { close(stop); <-done }, nil
}

// ShardObjects returns how many objects each shard owned at build time.
func (cs *ClusterServer) ShardObjects() []int {
	return append([]int(nil), cs.cluster.Counts...)
}

// Close stops every shard's background update writer, waiting for queued
// batches to be applied.
func (cs *ClusterServer) Close() { cs.cluster.Close() }

// EdgeOptions parameterizes an edge cache tier in front of the cluster;
// zero values take the edge package defaults.
type EdgeOptions struct {
	// AdmitThreshold is the per-cell hotness admission bar and Window the
	// hotness window length in queries.
	AdmitThreshold float64
	Window         int
	// SyncInterval bounds staleness against writers that bypass the edge;
	// zero keeps the subscription purely evidence/update-driven (correct
	// whenever all updates flow through the edge).
	SyncInterval time.Duration
	// Upstream overrides the transport the edge forwards to; nil uses the
	// in-process router directly. A remote edge node sets this to a pool of
	// pipelined wire connections back to the router (edge.NewUpstreamPool),
	// keeping the cluster's partition geometry for its cache cells. Its
	// responses are decoded off the wire, not pooled, so the edge leaves
	// them to the garbage collector.
	Upstream Transport
}

// Edge builds an edge cache tier fronting this cluster: a wire.Transport
// that answers popular cold range/kNN queries from a snapshot-pinned cache
// keyed by the cluster's own KD partition cells and forwards everything
// else to the router (docs/EDGE.md). Responses returned by the edge are
// owned by the caller; ReleaseResponse still accepts them.
func (cs *ClusterServer) Edge(opts EdgeOptions) (*edge.Edge, error) {
	part := cs.cluster.Router.Partition()
	upstream, release := Transport(cs.Transport()), cs.ReleaseResponse
	if opts.Upstream != nil {
		upstream, release = opts.Upstream, nil
	}
	e, err := edge.New(edge.Config{
		Upstream:        upstream,
		Locate:          part.Locate,
		Cells:           part.Shards(),
		ReleaseUpstream: release,
		AdmitThreshold:  opts.AdmitThreshold,
		Window:          opts.Window,
		SyncInterval:    opts.SyncInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	cs.edgeMu.Lock()
	cs.edges = append(cs.edges, e)
	cs.edgeMu.Unlock()
	return e, nil
}

// EdgeNetServer builds the TCP serving layer with an edge cache tier
// between the listener and the router: prodb -edge. Clients speak the
// identical wire protocol; popular queries never reach the shards.
func (cs *ClusterServer) EdgeNetServer(e *edge.Edge, opts ServeOptions) *wire.NetServer {
	handler := func(req *wire.Request) (*wire.Response, error) {
		if len(req.Updates) > 0 && !cs.remoteUpdates.Load() {
			return nil, ErrUpdatesDisabled
		}
		return e.RoundTrip(req)
	}
	return wire.NewNetServer(handler, wire.ServeConfig{
		MaxConns:    opts.MaxConns,
		MaxInflight: opts.MaxInflight,
		MaxPipeline: opts.MaxPipeline,
		ReadTimeout: opts.ReadTimeout,
		Stats:       &cs.stats,
		// Edge responses are caller-owned (hits are freshly built, misses
		// come from the router pool but were deep-copied on admission), so
		// recycling them into the router pool stays safe.
		Release: cs.cluster.Router.ReleaseResponse,
	})
}

// DialCluster connects to independently served shard processes (one prodb
// per shard) and returns a client-side scatter-gather transport over them:
// the cluster.Dial facade. The partition is derived from the shards' root
// rectangles (see cluster.Dial for the exactness caveat on updates);
// clusters served behind one prodb -cluster endpoint need plain Dial.
func DialCluster(addrs ...string) (Transport, error) {
	return cluster.Dial(addrs, cluster.Config{})
}
