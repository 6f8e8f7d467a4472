package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

const (
	nShards    = 2
	maxClients = 2
	// datasetSeed is fixed: like the paper's NE file the dataset is one
	// given input, and --seed varies the requests sent against it.
	datasetSeed = 1
	pageBytes   = 4096
	bulkFill    = 0.7
)

// clientsOf is how many closed-loop clients drive a workload: as many as the
// box has cores to run them on. The read-only workloads keep one goroutine
// runnable per client, so two. A moving-objects update alone occupies both
// cores (one writer per shard), and each shard's background packer wants one
// for 40-100 ms at a time; a second client on top of that waits for
// goroutines the Go scheduler preempts only every 10 ms, and its latencies
// measured the scheduler (README "Why one client moves the objects").
func clientsOf(workload string) int {
	if workload == wlMoving {
		return 1
	}
	return maxClients
}

// q32 rounds a coordinate to wire precision. Every rectangle the benchmark
// sends or stores is float32-exact, so the brute-force oracle, the server and
// a caching client all compare the very same numbers.
func q32(v float64) float64 { return float64(float32(v)) }

func quantRect(r geom.Rect) geom.Rect {
	return geom.Rect{MinX: q32(r.MinX), MinY: q32(r.MinY), MaxX: q32(r.MaxX), MaxY: q32(r.MaxY)}
}

func quantPoint(p geom.Point) geom.Point { return geom.Pt(q32(p.X), q32(p.Y)) }

// env is what every pass of a run shares: the dataset and its sizes.
type env struct {
	objects    []dataset.Object // ids 1..N at index id-1
	sizes      map[rtree.ObjectID]int
	totalBytes int64
	treeParams rtree.Params
	pops       map[string][]query.Query // see population
}

func newEnv(n int) *env {
	e := &env{
		objects:    repro.GenerateNE(n, datasetSeed),
		sizes:      make(map[rtree.ObjectID]int, n),
		pops:       make(map[string][]query.Query),
		treeParams: rtree.Params{MaxEntries: pageBytes / wire.DefaultSizeModel().Entry},
	}
	for i := range e.objects {
		o := &e.objects[i]
		o.MBR = quantRect(o.MBR)
		e.sizes[o.ID] = o.Size
		e.totalBytes += int64(o.Size)
	}
	return e
}

func (e *env) sizer(id rtree.ObjectID) int { return e.sizes[id] }

func (e *env) items(objs []dataset.Object) []rtree.Item {
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{Obj: o.ID, MBR: o.MBR}
	}
	return items
}

// stack is one running server side: shards, router, and a NetServer on a
// loopback port.
type stack struct {
	addr    string
	handler wire.Handler // the NetServer's handler, for in-process replay
	stats   *metrics.ServerStats
	stop    func() error // shuts the NetServer down, then the shards

	// Traced composition only.
	logs      []*timedLog
	recoverNs int64 // wal.Open + server.Restore over all shards, when the WAL dir held state
}

// listenAndServe puts ns on a loopback port and returns its address and a
// function that drains it.
func listenAndServe(ns *wire.NetServer) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	served := make(chan error, 1)
	go func() { served <- ns.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := ns.Shutdown(ctx)
		<-served
		return err
	}
	return ln.Addr().String(), stop, nil
}

// buildProd stands up the stack users run: repro.NewClusterServer and its
// NetServer. walDir is empty for the read-only workloads.
func buildProd(e *env, walDir string) (*stack, error) {
	cs, err := repro.NewClusterServer(e.objects, repro.ClusterConfig{Shards: nShards, WALDir: walDir})
	if err != nil {
		return nil, err
	}
	ns := cs.NetServer(repro.ServeOptions{})
	addr, stopNet, err := listenAndServe(ns)
	if err != nil {
		cs.Close()
		return nil, err
	}
	return &stack{
		addr:    addr,
		handler: cs.Handler(),
		stats:   ns.Stats(),
		stop: func() error {
			err := stopNet()
			cs.Close()
			return err
		},
	}, nil
}

// buildTraced composes the same stack from the layers' public constructors,
// the way cluster.NewInProcess does, with a span recorded at every boundary.
// A WAL directory that already holds state is restored from (checkpoint +
// tail), which is also how wal.recover_ms is taken.
func buildTraced(e *env, walDir string, tr *tracer) (*stack, error) {
	part, err := cluster.MakePartition(e.objects, nShards)
	if err != nil {
		return nil, err
	}
	st := &stack{stats: &metrics.ServerStats{}}
	var servers []*server.Server
	closeShards := func() {
		for _, sh := range servers {
			sh.Close()
		}
		for _, l := range st.logs {
			l.inner.Close()
		}
	}
	shards := make([]cluster.Shard, nShards)
	for s, objs := range part.Split(e.objects) {
		cfg := server.Config{}
		var rec *wal.Recovery
		recoverStart := time.Now()
		if walDir != "" {
			dir := filepath.Join(walDir, fmt.Sprintf("shard-%d", s))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				closeShards()
				return nil, fmt.Errorf("shard %d wal dir: %w", s, err)
			}
			l, err := wal.Open(dir, wal.Options{})
			if err != nil {
				closeShards()
				return nil, fmt.Errorf("shard %d: %w", s, err)
			}
			tl := &timedLog{inner: l, tr: tr, shard: uint8(s)}
			st.logs = append(st.logs, tl)
			cfg.WAL = tl
			if r := l.Recovered(); r.Checkpoint != nil {
				rec = r
			}
		}
		var sh *server.Server
		if rec != nil {
			tail := make([]server.ReplayRecord, len(rec.Tail))
			for i, t := range rec.Tail {
				tail[i] = server.ReplayRecord{EpochBefore: t.EpochBefore, Ops: t.Ops}
			}
			sh, err = server.Restore(rec.Checkpoint, tail, e.sizer, cfg)
			if err != nil {
				closeShards()
				return nil, fmt.Errorf("shard %d restore: %w", s, err)
			}
			st.recoverNs += int64(time.Since(recoverStart))
		} else {
			sh = server.New(rtree.BulkLoad(e.treeParams, e.items(objs), bulkFill), e.sizer, cfg)
			if cfg.WAL != nil {
				if err := sh.Checkpoint(); err != nil {
					sh.Close()
					closeShards()
					return nil, fmt.Errorf("shard %d initial checkpoint: %w", s, err)
				}
			}
		}
		servers = append(servers, sh)
		shards[s] = cluster.Shard{T: tracedShard(tr, uint8(s), sh), Release: sh.ReleaseResponse}
	}
	router, err := cluster.New(shards, cluster.Config{Part: part, Sizer: e.sizer})
	if err != nil {
		closeShards()
		return nil, err
	}
	st.handler = func(req *wire.Request) (*wire.Response, error) {
		kind := requestKind(req)
		start := tr.now()
		resp, err := router.RoundTrip(req)
		tr.add(span{req: tr.current(req.Client), layer: layerRoute, kind: kind, start: start, end: tr.now()})
		return resp, err
	}
	ns := wire.NewNetServer(st.handler, wire.ServeConfig{Stats: st.stats, Release: router.ReleaseResponse})
	addr, stopNet, err := listenAndServe(ns)
	if err != nil {
		closeShards()
		return nil, err
	}
	st.addr = addr
	st.stop = func() error {
		err := stopNet()
		closeShards()
		return err
	}
	return st, nil
}

func requestKind(req *wire.Request) uint8 {
	switch {
	case len(req.Updates) > 0:
		return kindUpdate
	case req.Catalog:
		return kindCatalog
	}
	return kindQuery
}

// tracedShard is cluster.ShardTransport with a span around each branch; it
// calls the server directly so the query span can carry ExecInfo.
func tracedShard(tr *tracer, s uint8, sh *server.Server) wire.Transport {
	return wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
		id := tr.current(req.Client)
		start := tr.now()
		if len(req.Updates) > 0 {
			resp := sh.ExecuteUpdates(req)
			acked := 0
			for _, ok := range resp.UpdateResults {
				if ok {
					acked++
				}
			}
			tr.add(span{req: id, layer: layerShard, kind: kindUpdate, shard: s, start: start, end: tr.now(), a: int32(acked)})
			return resp, nil
		}
		resp, info := sh.Execute(req)
		tr.add(span{req: id, layer: layerShard, kind: requestKind(req), shard: s, start: start, end: tr.now(),
			a: int32(info.VisitedNodes), b: int32(len(resp.Objects))})
		return resp, nil
	})
}

// timedLog is the server.BatchLog handed to a traced shard: the real
// wal.Log with a span around every append and checkpoint.
type timedLog struct {
	inner *wal.Log
	tr    *tracer
	shard uint8
}

func (l *timedLog) Append(epochBefore uint64, ops []wire.UpdateOp) error {
	start := l.tr.now()
	err := l.inner.Append(epochBefore, ops)
	end := l.tr.now()
	// Re-encoding the payload to learn its length happens after the span.
	n := len(wire.AppendWALPayload(nil, epochBefore, ops)) + 8 // + frame header
	l.tr.add(span{layer: layerWAL, kind: kindUpdate, shard: l.shard, start: start, end: end, a: int32(len(ops)), b: int32(n)})
	return err
}

func (l *timedLog) ShouldCheckpoint() bool { return l.inner.ShouldCheckpoint() }

func (l *timedLog) Checkpoint(epoch uint64, payload []byte) error {
	start := l.tr.now()
	err := l.inner.Checkpoint(epoch, payload)
	l.tr.add(span{layer: layerWAL, kind: kindCheckpoint, shard: l.shard, start: start, end: l.tr.now(), b: int32(len(payload))})
	return err
}

func closeTransport(t wire.Transport) {
	if c, ok := t.(io.Closer); ok {
		c.Close()
	}
}
