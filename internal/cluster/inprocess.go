package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
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

	// WALDir enables per-shard durability: shard s logs every applied batch
	// to WALDir/shard-<s> and checkpoints on the WAL's schedule, and
	// Kill/Restart crash-recovers shards from their logs. Empty disables
	// durability (and Restart). Reopening a WALDir that already holds
	// history restores every shard from its checkpoint + tail instead of
	// bulk-loading the objects — run the process with the same dataset and
	// shard count so the partition the router derives matches the one the
	// shards were logged under.
	WALDir string
	// WAL tunes the per-shard logs (checkpoint threshold, fsync policy).
	WAL wal.Options
}

// InProcess is a running in-process cluster.
type InProcess struct {
	Router *Router

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

// Close stops every shard's background update writer and WAL handle.
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

// Kill crash-stops shard s. Its server stops serving at once; its writer
// drains, so every acked batch is in the WAL, and the WAL closes, so a
// Restart can recover from disk. The shard is down until Restart, and the
// router waits it out meanwhile. The router also kills a slot it retires
// (merged away, or spawned by a split that aborted). Idempotent.
func (p *InProcess) Kill(s int) {
	if ps := p.proc(s); ps != nil {
		ps.stop()
	}
}

// Restart recovers a killed shard from its WAL (checkpoint + tail replay)
// and brings it back: the router's next round trip to the shard reaches it.
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
// cutover. The new slot gets its own WAL directory when the cluster is
// durable.
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

// errShardDown is what a down shard's transport returns: its server was
// killed and has not restarted yet. The router waits it out.
var errShardDown = errors.New("cluster: shard is down")

// procShard is one shard "process": the live server (nil while killed)
// and its WAL.
type procShard struct {
	idx     int
	cur     atomic.Pointer[server.Server]
	sizer   func(rtree.ObjectID) int
	baseCfg server.Config // per-server config without the WAL
	walDir  string        // empty: no durability, Restart impossible
	walOpts wal.Options
	log     *wal.Log   // open log of the live server
	mu      sync.Mutex // serializes kill/restart/stop transitions
}

// killLocked closes the live server, which drains its writer so every
// acked batch is in the WAL, and closes the WAL. It takes no router lock,
// so a kill never waits behind a split's or merge's write fence. It also
// releases a partly started process. Idempotent; caller holds ps.mu.
func (ps *procShard) killLocked() {
	if srv := ps.cur.Swap(nil); srv != nil {
		srv.Close()
	}
	if ps.log != nil {
		ps.log.Close()
		ps.log = nil
	}
}

// stop stops the process under its lock. Kill (which also retires a slot a
// merge drained or an aborted split spawned), Close and a failed startProc
// all end here; only a shard with a WAL can Restart after it.
func (ps *procShard) stop() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.killLocked()
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

// serverTransport runs requests directly on the server cur holds: batched
// updates go through its writer queue, everything else executes as a
// query. A nil server is a shard that is down, and the round trip fails
// with errShardDown; once Restart stores the recovered server, the next
// round trip reaches it.
type serverTransport struct {
	cur *atomic.Pointer[server.Server]
}

func (t serverTransport) RoundTrip(req *wire.Request) (*wire.Response, error) {
	srv := t.cur.Load()
	if srv == nil {
		return nil, errShardDown
	}
	if len(req.Updates) > 0 {
		return srv.ExecuteUpdates(req), nil
	}
	resp, _ := srv.Execute(req)
	return resp, nil
}

// release recycles a response into the live server's pool; while the shard
// is down the garbage collector takes it.
func (t serverTransport) release(resp *wire.Response) {
	if srv := t.cur.Load(); srv != nil {
		srv.ReleaseResponse(resp)
	}
}

// DurabilityErr reports the live server's latched WAL failure, for
// Router.Snapshot; a down shard reports none.
func (t serverTransport) DurabilityErr() error {
	if srv := t.cur.Load(); srv != nil {
		return srv.DurabilityErr()
	}
	return nil
}

// newServerFunc builds a shard process's server under cfg (which carries
// the WAL when the cluster is durable). rec is the shard's recovered WAL
// state when its log holds a checkpoint, else nil; restored reports that
// the server came from it, so no initial checkpoint is taken over it.
type newServerFunc func(cfg server.Config, rec *wal.Recovery) (srv *server.Server, restored bool, err error)

// startProc stands up slot t's shard process and registers it: it opens
// WALDir/shard-<t> when durability is on, builds the server, and takes the
// initial checkpoint unless the server restored. A failure at any step
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
	srv, restored, err := newServer(srvCfg, rec)
	if err != nil {
		return fail("server", err)
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

	st := serverTransport{cur: &ps.cur}
	return Shard{T: st, Release: st.release}, nil
}

// NewInProcess KD-partitions the objects, bulk-loads one server per shard,
// and stands up the router over them. The shards boot concurrently; if any
// fails, every shard is released and the error joins each shard's failure.
// Every shard must own at least one object; datasets smaller than the shard
// count should shard less. With cfg.WALDir set each shard logs and
// checkpoints for crash recovery.
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
	p := &InProcess{cfg: cfg}
	shards := make([]Shard, n)
	// Shards share nothing until the router joins them, so each boots on
	// its own goroutine: bulk load or restore, pack, WAL and checkpoint.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := range split {
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
	p.Router, err = New(shards, Config{Part: part, Sizer: cfg.Sizer})
	if err != nil {
		p.Close()
		return nil, err
	}
	// Seed the per-shard object-count gauges (ShardObjects, the stats
	// line) from what each shard holds, which a restored shard's WAL may
	// have moved from its split; from here the router maintains them on
	// every acked update.
	for s := range split {
		p.Router.Stats().Shard(s).Objects.Store(int64(p.proc(s).cur.Load().Tree().Len()))
	}
	return p, nil
}

// spawn stands up a fresh shard process for slot t from a bulk-loaded
// packed image — the split's transfer format: the donor's half bulk-loads
// into a tree, serializes through AppendImage, and the spawned server opens
// the deserialized copy, exactly as a remote spawn would receive it. Each
// object keeps the payload size the donor reported for it. The slot gets
// its own WAL directory (with an initial checkpoint covering the image)
// when the cluster is durable. A spawn never restores: slots are never
// reused, so nothing in shard-<t> belongs to this slot. Called by
// Router.SplitShard.
func (p *InProcess) spawn(t int, objs []wire.ObjectRep) (Shard, error) {
	items := make([]rtree.Item, len(objs))
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{Obj: o.ID, MBR: o.MBR}
		sizes[o.ID] = o.Size
	}
	size := func(id rtree.ObjectID) int { return sizes[id] }
	img := rtree.BulkLoad(p.cfg.Tree, items, bulkFill).AppendImage(nil)
	return p.startProc(t, size, func(cfg server.Config, _ *wal.Recovery) (*server.Server, bool, error) {
		tree, err := rtree.ReadImage(img)
		if err != nil {
			return nil, false, fmt.Errorf("image: %w", err)
		}
		return server.New(tree, size, cfg), false, nil
	})
}
