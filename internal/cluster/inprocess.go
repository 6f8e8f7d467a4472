package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// In-process clusters — N shard servers and their router inside one process
// — are built here once, for every consumer: the repro facade
// (NewClusterServer behind prodb -cluster), the simulation harness
// (procsim -fig throughput -cluster), and the equivalence test suite. One
// builder means one definition of how a dataset becomes shards.

// bulkFill is the page fill every shard bulk-loads to: the paper's R*-trees
// run at about 70% occupancy (rtree.BulkLoad).
const bulkFill = 0.7

// InProcessConfig parameterizes NewInProcess.
type InProcessConfig struct {
	// Shards is the number of spatial shards; default 4.
	Shards int
	// Tree shapes each shard's R*-tree (zero MaxEntries means the
	// paper's 204-entry pages); shards bulk-load to 70% fill.
	Tree rtree.Params
	// Server configures each shard server.
	Server server.Config
	// Sizer reports object payload sizes; it backs both the shard servers
	// and the router's cross-shard re-inserts. Required.
	Sizer func(rtree.ObjectID) int
	// RetryAttempts, RetryBackoff and FailThreshold pass through to the
	// router Config.
	RetryAttempts int
	RetryBackoff  time.Duration
	FailThreshold int

	// WALDir enables per-shard durability: shard s logs every applied batch
	// to WALDir/shard-<s> and checkpoints on the WAL's schedule, and
	// Kill/Restart crash-recovers shards from their logs. Empty disables
	// durability (and Restart). Reopening a WALDir that already holds
	// history restores every shard (primary and standby alike) from its
	// checkpoint + tail instead of bulk-loading the objects — run the
	// process with the same dataset and shard count so the partition the
	// router derives matches the one the shards were logged under.
	WALDir string
	// WAL tunes the per-shard logs (checkpoint threshold, fsync policy).
	WAL wal.Options
	// Replicas runs one warm standby server per shard, fed the primary's
	// acked batches over the replication stream and handed to the router
	// for failover. Standbys are memory-only (no WAL).
	Replicas bool
}

// InProcess is a running in-process cluster.
type InProcess struct {
	Router *Router
	Counts []int // objects owned per shard at build time

	cfg InProcessConfig // defaults materialized; reused by elastic Spawn

	pmu   sync.Mutex // guards procs growth (elastic splits append slots)
	procs []*procShard
}

// proc returns slot s's shard process (nil for never-populated slots).
func (p *InProcess) proc(s int) *procShard {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	if s < 0 || s >= len(p.procs) {
		return nil
	}
	return p.procs[s]
}

// Close stops every shard's background update writer, replication pump,
// standby, and WAL handle.
func (p *InProcess) Close() {
	p.pmu.Lock()
	procs := append([]*procShard(nil), p.procs...)
	p.pmu.Unlock()
	for _, ps := range procs {
		if ps != nil {
			ps.stop()
		}
	}
}

// Kill crash-stops shard s: its transport starts failing immediately, the
// writer drains, the replication stream stops for good, and the WAL handle
// closes so a Restart can recover from disk. Idempotent. The router rides
// it out through retry, replica promotion, or redial-after-Restart.
func (p *InProcess) Kill(s int) {
	if ps := p.proc(s); ps != nil {
		ps.kill()
	}
}

// Restart recovers a killed shard from its WAL (checkpoint + tail replay)
// and brings it back as the shard's primary; the router's next redial binds
// to it. The restarted primary runs without a standby — its replica may
// already have been promoted, and re-streaming into it would double-apply.
// Restart of a live shard is a no-op.
func (p *InProcess) Restart(s int) error {
	ps := p.proc(s)
	if ps == nil {
		return fmt.Errorf("cluster: restart: no shard in slot %d", s)
	}
	return ps.restart()
}

// SplitShard splits shard s online (docs/ELASTIC.md): the far half of its
// region moves to a freshly spawned in-process shard behind an epoch-fenced
// cutover. The new slot gets its own WAL directory and standby when the
// cluster was configured with them.
func (p *InProcess) SplitShard(s int) error { return p.Router.SplitShard(s, p) }

// MergeShards folds shard t back into its KD sibling s and retires t's
// server. All clients flush (the dead slot's node ids cannot be
// invalidated individually).
func (p *InProcess) MergeShards(s, t int) error { return p.Router.MergeShards(s, t, p) }

// LiveShards returns the slots that currently own a region.
func (p *InProcess) LiveShards() []int { return p.Router.LiveShards() }

// SiblingOf returns shard s's KD sibling when both are leaves — the only
// pair MergeShards accepts.
func (p *InProcess) SiblingOf(s int) (int, bool) { return p.Router.SiblingOf(s) }

// Stats exposes the router's counters; with SplitShard/MergeShards and
// LiveShards/SiblingOf this completes the elastic.Cluster surface.
func (p *InProcess) Stats() *metrics.ClusterStats { return p.Router.Stats() }

// errShardDown is what a killed shard's transport returns: the process is
// gone, so every round trip fails until the router redials a restarted one.
var errShardDown = errors.New("cluster: shard is down")

// procShard is one shard "process": the live primary (nil while killed),
// its WAL, and the replication pump feeding the warm standby.
type procShard struct {
	idx     int
	cur     atomic.Pointer[server.Server]
	sizer   func(rtree.ObjectID) int
	baseCfg server.Config // per-server config without WAL/replication wiring
	walDir  string        // empty: no durability, Restart impossible
	walOpts wal.Options
	log     *wal.Log // open log of the live primary
	replica *server.Server
	repl    *replicator
	mu      sync.Mutex // serializes kill/restart/stop transitions
}

func (ps *procShard) kill() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.killLocked()
}

// killLocked closes the live primary, which drains its writer so every
// acked batch is in the WAL and the stream, then flushes the remaining
// stream into the standby and stops it for good, and closes the WAL. It
// also releases a partly started process. Idempotent; caller holds ps.mu.
func (ps *procShard) killLocked() {
	if srv := ps.cur.Swap(nil); srv != nil {
		srv.Close()
	}
	if ps.repl != nil {
		ps.repl.stop()
		ps.repl = nil
	}
	if ps.log != nil {
		ps.log.Close()
		ps.log = nil
	}
}

// stop tears the process down for good: everything kill releases, plus the
// standby. Retire, Close and a failed startProc all end here.
func (ps *procShard) stop() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.killLocked()
	if ps.replica != nil {
		ps.replica.Close()
		ps.replica = nil
	}
}

func (ps *procShard) restart() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.cur.Load() != nil {
		return nil
	}
	if ps.walDir == "" {
		return fmt.Errorf("cluster: shard %d has no WAL to restart from", ps.idx)
	}
	l, err := wal.Open(ps.walDir, ps.walOpts)
	if err != nil {
		return fmt.Errorf("cluster: restart shard %d: %w", ps.idx, err)
	}
	rec := l.Recovered()
	if rec.Checkpoint == nil {
		l.Close()
		return fmt.Errorf("cluster: restart shard %d: no checkpoint on disk", ps.idx)
	}
	cfg := ps.baseCfg
	cfg.WAL = l
	srv, err := server.Restore(rec.Checkpoint, replayTail(rec.Tail), ps.sizer, cfg)
	if err != nil {
		l.Close()
		return fmt.Errorf("cluster: restart shard %d: %w", ps.idx, err)
	}
	ps.log = l
	ps.cur.Store(srv)
	return nil
}

// replayTail converts recovered WAL records into the server's replay form.
func replayTail(recs []wal.Record) []server.ReplayRecord {
	tail := make([]server.ReplayRecord, len(recs))
	for i, t := range recs {
		tail[i] = server.ReplayRecord{EpochBefore: t.EpochBefore, Ops: t.Ops}
	}
	return tail
}

// redial is the router's Shard.Redial: a transport bound to whatever
// primary is live right now, recycling into that primary's response pool,
// and failing while the shard is down.
func (ps *procShard) redial() (Shard, error) {
	srv := ps.cur.Load()
	if srv == nil {
		return Shard{}, errShardDown
	}
	return Shard{T: serverTransport{srv: srv, cur: &ps.cur}, Release: srv.ReleaseResponse}, nil
}

// serverTransport runs requests directly on a server: batched updates go
// through its writer queue, everything else executes as a query. With cur
// set it serves one primary generation: once the shard is killed or
// restarted, round trips through the old binding fail like a dead TCP
// connection would, which is what drives the router's retry/redial path.
type serverTransport struct {
	srv *server.Server
	cur *atomic.Pointer[server.Server] // nil: the server is never replaced
}

func (t serverTransport) RoundTrip(req *wire.Request) (*wire.Response, error) {
	if t.cur != nil && t.cur.Load() != t.srv {
		return nil, errShardDown
	}
	if len(req.Updates) > 0 {
		return t.srv.ExecuteUpdates(req), nil
	}
	resp, _ := t.srv.Execute(req)
	return resp, nil
}

// DurabilityErr reports the server's latched WAL failure, for Router.Snapshot.
func (t serverTransport) DurabilityErr() error { return t.srv.DurabilityErr() }

// replicator pumps acked batches from the primary's writer into the warm
// standby. The tap runs on the writer goroutine and blocks when the bounded
// stream fills, so the standby's lag stays bounded by the channel depth.
type replicator struct {
	ch   chan []wire.UpdateOp
	done chan struct{}
}

func newReplicator(replica *server.Server) *replicator {
	r := &replicator{ch: make(chan []wire.UpdateOp, 256), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for ops := range r.ch {
			resp := replica.ExecuteUpdates(&wire.Request{Replica: true, Updates: ops})
			replica.ReleaseResponse(resp)
		}
	}()
	return r
}

func (r *replicator) tap(_ uint64, ops []wire.UpdateOp) {
	r.ch <- append([]wire.UpdateOp(nil), ops...)
}

func (r *replicator) stop() {
	close(r.ch)
	<-r.done
}

// ShardTransport wraps a single-node server as a router shard: batched
// updates go through the writer queue, everything else executes as a
// query, and responses recycle through the server's pool.
func ShardTransport(sh *server.Server) Shard {
	return Shard{T: serverTransport{srv: sh}, Release: sh.ReleaseResponse}
}

// newServerFunc builds one server of a shard process under cfg: first the
// standby (memory-only cfg) when the cluster runs replicas, then the primary
// (cfg carrying the WAL and the replication tap). Both calls must yield
// bit-for-bit equal servers so the replicated op stream keeps the pair
// identical. rec is the shard's recovered WAL state when its log holds a
// checkpoint, else nil; restored reports that the server came from it, so
// no initial checkpoint is taken over it.
type newServerFunc func(cfg server.Config, rec *wal.Recovery) (srv *server.Server, restored bool, err error)

// startProc stands up slot t's shard process and registers it: it opens
// WALDir/shard-<t> when durability is on, starts the standby and its
// replication stream when replicas are on, builds the primary, and takes
// the initial checkpoint unless the primary restored. A failure at any step
// releases everything already started through stop, the teardown Retire
// and Close use.
func (p *InProcess) startProc(t int, sizer func(rtree.ObjectID) int, newServer newServerFunc) (Shard, error) {
	cfg := p.cfg
	ps := &procShard{idx: t, sizer: sizer, baseCfg: cfg.Server, walOpts: cfg.WAL}
	fail := func(step string, err error) (Shard, error) {
		ps.stop()
		return Shard{}, fmt.Errorf("cluster: shard %d %s: %w", t, step, err)
	}
	srvCfg := cfg.Server
	var rec *wal.Recovery
	if cfg.WALDir != "" {
		ps.walDir = filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%d", t))
		l, err := wal.Open(ps.walDir, cfg.WAL)
		if err != nil {
			return fail("wal", err)
		}
		ps.log, srvCfg.WAL = l, l
		if r := l.Recovered(); r.Checkpoint != nil {
			rec = r
		}
	}
	if cfg.Replicas {
		rep, _, err := newServer(cfg.Server, rec)
		if err != nil {
			return fail("standby", err)
		}
		ps.replica = rep
		ps.repl = newReplicator(rep)
		srvCfg.OnApplied = ps.repl.tap
	}
	srv, restored, err := newServer(srvCfg, rec)
	if err != nil {
		return fail("primary", err)
	}
	ps.cur.Store(srv)
	if srvCfg.WAL != nil && !restored {
		if err := srv.Checkpoint(); err != nil {
			return fail("initial checkpoint", err)
		}
	}
	p.pmu.Lock()
	for len(p.procs) <= t {
		p.procs = append(p.procs, nil)
	}
	p.procs[t] = ps
	p.pmu.Unlock()

	shard := Shard{T: serverTransport{srv: srv, cur: &ps.cur}, Release: srv.ReleaseResponse, Redial: ps.redial}
	if ps.replica != nil {
		shard.Replica, shard.ReplicaRelease = serverTransport{srv: ps.replica}, ps.replica.ReleaseResponse
	}
	return shard, nil
}

// NewInProcess KD-partitions the objects, bulk-loads one server per shard,
// and stands up the router over them. The shards boot concurrently; if any
// fails, every shard is released and the error joins each shard's failure.
// Every shard must own at least one object; datasets smaller than the shard
// count should shard less. With cfg.WALDir set each shard logs and
// checkpoints for crash recovery; with cfg.Replicas each shard streams to a
// warm standby the router can promote.
func NewInProcess(objects []dataset.Object, cfg InProcessConfig) (*InProcess, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 4
	}
	if cfg.Tree.MaxEntries == 0 {
		cfg.Tree = rtree.DefaultParams()
	}
	if cfg.Sizer == nil {
		return nil, fmt.Errorf("cluster: InProcessConfig.Sizer is required")
	}
	part, err := MakePartition(objects, n)
	if err != nil {
		return nil, err
	}
	split := part.Split(objects)
	for s := range split {
		if len(split[s]) == 0 {
			return nil, fmt.Errorf("cluster: shard %d/%d owns no objects; use fewer shards", s, n)
		}
	}
	cfg.Shards = n
	p := &InProcess{Counts: make([]int, n), cfg: cfg}
	shards := make([]Shard, n)
	// Shards share nothing until the router joins them, so each boots on
	// its own goroutine: bulk load or restore, pack, WAL and checkpoint.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := range split {
		p.Counts[s] = len(split[s])
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			items := make([]rtree.Item, len(split[s]))
			for i, o := range split[s] {
				items[i] = rtree.Item{Obj: o.ID, MBR: o.MBR}
			}
			// A fresh boot bulk-loads the shard's objects; a WAL dir that
			// already holds history restores from its checkpoint + tail.
			shards[s], errs[s] = p.startProc(s, cfg.Sizer, func(srvCfg server.Config, rec *wal.Recovery) (*server.Server, bool, error) {
				if rec != nil {
					srv, err := server.Restore(rec.Checkpoint, replayTail(rec.Tail), cfg.Sizer, srvCfg)
					return srv, true, err
				}
				return server.New(rtree.BulkLoad(cfg.Tree, items, bulkFill), cfg.Sizer, srvCfg), false, nil
			})
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		p.Close()
		return nil, err
	}
	p.Router, err = New(shards, Config{
		Part:          part,
		Sizer:         cfg.Sizer,
		RetryAttempts: cfg.RetryAttempts,
		RetryBackoff:  cfg.RetryBackoff,
		FailThreshold: cfg.FailThreshold,
	})
	if err != nil {
		p.Close()
		return nil, err
	}
	// Seed the per-shard object-count gauges the rebalancer triggers on;
	// from here the router maintains them on every acked update.
	for s, c := range p.Counts {
		p.Router.Stats().Shard(s).Objects.Store(int64(c))
	}
	return p, nil
}

// spawn stands up a fresh shard process for slot t from a bulk-loaded
// packed image — the split's transfer format: the donor's half bulk-loads
// into a tree, serializes through AppendImage, and the spawned server opens
// the deserialized copy, exactly as a remote spawn would receive it. The
// slot gets its own WAL directory (with an initial checkpoint covering the
// image) and a warm standby opened from the same image when the cluster is
// configured with durability or replicas. A spawn never restores: slots are
// never reused, so nothing in shard-<t> belongs to this slot. Called by
// Router.SplitShard.
func (p *InProcess) spawn(t int, items []rtree.Item, size func(rtree.ObjectID) int) (Shard, error) {
	img := rtree.BulkLoad(p.cfg.Tree, items, bulkFill).AppendImage(nil)
	return p.startProc(t, size, func(cfg server.Config, _ *wal.Recovery) (*server.Server, bool, error) {
		tree, err := rtree.ReadImage(img)
		if err != nil {
			return nil, false, fmt.Errorf("image: %w", err)
		}
		return server.New(tree, size, cfg), false, nil
	})
}

// retire tears down slot t's process after a merge drained it (or after a
// split aborted before installing it): server closed, WAL closed, standby
// released. Called by the router.
func (p *InProcess) retire(t int) {
	if ps := p.proc(t); ps != nil {
		ps.stop()
	}
}
