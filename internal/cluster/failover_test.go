package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The crash-recovery contract: a shard can die mid-stream and the cluster's
// answers stay exactly what a single-node server would produce, because the
// shard restarts from its WAL + checkpoint and requests wait the restart
// out. These tests drive the same randomized update stream as the
// equivalence suite and kill shards while it flows.

// crashConfig is the chaos-tuned cluster: durability on, sync off (tests),
// and small checkpoints so the writer checkpoints mid-stream.
func crashConfig(t *testing.T, sizes map[rtree.ObjectID]int) InProcessConfig {
	return InProcessConfig{
		Shards: 4,
		Tree:   rtree.Params{MaxEntries: testMaxEntries},
		Sizer:  func(id rtree.ObjectID) int { return sizes[id] },
		WALDir: t.TempDir(),
		WAL:    wal.Options{NoSync: true, CheckpointBytes: 8 << 10},
	}
}

// TestClusterEquivalenceCrashRecovery SIGKILLs (in effect) one shard per
// round in the middle of the update stream, restarts it from its WAL, and
// requires every subsequent query and update ack to match the single-node
// server byte for byte — the restored shard must resume with the identical
// arena or the comparisons diverge.
func TestClusterEquivalenceCrashRecovery(t *testing.T) {
	for _, seed := range []int64{5, 6} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			nObj := 2000
			if testing.Short() {
				nObj = 600
			}
			objs := genObjects(nObj, seed)
			sizes := make(map[rtree.ObjectID]int, len(objs))
			for _, o := range objs {
				sizes[o.ID] = o.Size
			}
			single := buildServer(objs, sizes)
			defer single.Close()
			p, err := NewInProcess(objs, crashConfig(t, sizes))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			router := p.Router

			rng := rand.New(rand.NewSource(seed * 77))
			upd := newUpdateStream(seed*31, objs)
			for round := 0; round < 6; round++ {
				ops := upd.batch(40)
				sResp := single.ExecuteUpdates(&wire.Request{Client: 900, Updates: ops})
				cResp, err := router.RoundTrip(&wire.Request{Client: 900, Updates: ops})
				if err != nil {
					t.Fatalf("round %d: cluster updates: %v", round, err)
				}
				for i := range sResp.UpdateResults {
					if sResp.UpdateResults[i] != cResp.UpdateResults[i] {
						t.Fatalf("round %d: op %d ack %v, want %v",
							round, i, cResp.UpdateResults[i], sResp.UpdateResults[i])
					}
				}

				// Crash-restart a different shard each round, mid-history.
				victim := round % 4
				killed := p.proc(victim).cur.Load()
				p.Kill(victim)
				if err := p.Restart(victim); err != nil {
					t.Fatalf("round %d: restart shard %d: %v", round, victim, err)
				}
				if srv := p.proc(victim).cur.Load(); srv == nil || srv == killed {
					t.Fatalf("round %d: shard %d serves no restarted server", round, victim)
				}

				for qi := 0; qi < 12; qi++ {
					c := geom.Pt(rng.Float64(), rng.Float64())
					var q query.Query
					switch qi % 3 {
					case 0:
						q = query.NewRange(geom.RectFromCenter(c, 0.02+rng.Float64()*0.25, 0.02+rng.Float64()*0.25))
					case 1:
						q = query.NewKNN(c, 1+rng.Intn(16))
					default:
						q = query.NewJoin(geom.RectFromCenter(c, 0.1+rng.Float64()*0.2, 0.1+rng.Float64()*0.2), 0.002+rng.Float64()*0.01)
					}
					tag := fmt.Sprintf("round %d query %d (%s)", round, qi, q.Kind)
					sResp, _ := single.Execute(&wire.Request{Client: wire.ClientID(qi + 1), Q: q})
					cResp, err := router.RoundTrip(&wire.Request{Client: wire.ClientID(qi + 1), Q: q})
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					switch q.Kind {
					case query.Range:
						compareRange(t, tag, sResp, cResp)
					case query.KNN:
						compareKNN(t, tag, q, sResp, cResp)
					default:
						compareJoin(t, tag, sResp, cResp)
					}
				}
			}
		})
	}
}

// TestStartProcFailureReleasesEverything fails a shard process's initial
// checkpoint after its WAL and server are up, and the server's writer
// goroutine is running: the failed start must release both — no writer
// goroutine, no open log file — and leave the slot unregistered.
func TestStartProcFailureReleasesEverything(t *testing.T) {
	objs := genObjects(300, 7)
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{Obj: o.ID, MBR: o.MBR}
	}
	sizer := func(rtree.ObjectID) int { return 1 }
	dir := t.TempDir()
	p := &InProcess{cfg: InProcessConfig{
		Tree:   rtree.Params{MaxEntries: testMaxEntries},
		WALDir: dir,
		WAL:    wal.Options{NoSync: true},
	}}
	goroutines, files := runtime.NumGoroutine(), openFiles()

	_, err := p.startProc(0, sizer, func(cfg server.Config, _ *wal.Recovery) (*server.Server, bool, error) {
		cfg.WAL = refusingCheckpoints{cfg.WAL}
		srv := server.New(rtree.BulkLoad(p.cfg.Tree, items, bulkFill), sizer, cfg)
		// One applied batch starts the server's writer goroutine.
		srv.ReleaseResponse(srv.ExecuteUpdates(&wire.Request{Updates: []wire.UpdateOp{
			{Kind: wire.UpdateDelete, Obj: 1 << 30, From: objs[0].MBR},
		}}))
		return srv, false, nil
	})
	if err == nil || !strings.Contains(err.Error(), "initial checkpoint") {
		t.Fatalf("startProc: err=%v; want the initial checkpoint's failure", err)
	}
	if p.proc(0) != nil {
		t.Fatal("a failed shard process was registered")
	}
	requireReleased(t, goroutines, files)
	l, err := wal.Open(filepath.Join(dir, "shard-0"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen the failed shard's WAL: %v", err)
	}
	l.Close()
}

// refusingCheckpoints is a shard's log that appends but refuses to
// checkpoint.
type refusingCheckpoints struct{ server.BatchLog }

func (refusingCheckpoints) Checkpoint(uint64, []byte) error {
	return errors.New("checkpoint refused")
}

// openFiles counts this process's open file descriptors, or returns -1
// without procfs (the file check is then skipped).
func openFiles() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// requireReleased waits up to a second for the goroutine count to fall back
// to its baseline and requires no more open files than before.
func requireReleased(t *testing.T, goroutines, files int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after the failed start, %d before", runtime.NumGoroutine(), goroutines)
		}
	}
	if now := openFiles(); now > files {
		t.Fatalf("open files: %d after the failed start, %d before", now, files)
	}
}

// TestNewInProcessShardFailureReleasesEverything boots four shards at once
// with shard 2's WAL directory blocked by a regular file. NewInProcess must
// name shard 2 and release the shards that did start — servers and logs —
// leaving each of their directories with an initial checkpoint that
// reopens. A boot that succeeds must leave the
// counts, the router's object gauges and every shard's tree a serial build
// gives.
func TestNewInProcessShardFailureReleasesEverything(t *testing.T) {
	objs := genObjects(1200, 31)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	cfg := crashConfig(t, sizes)
	if err := os.WriteFile(filepath.Join(cfg.WALDir, "shard-2"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	goroutines, files := runtime.NumGoroutine(), openFiles()
	if p, err := NewInProcess(objs, cfg); err == nil {
		p.Close()
		t.Fatal("NewInProcess succeeded with shard 2's WAL directory blocked")
	} else if !strings.Contains(err.Error(), "shard 2 wal") {
		t.Fatalf("NewInProcess error %q does not name shard 2's WAL", err)
	}
	requireReleased(t, goroutines, files)
	for _, s := range []int{0, 1, 3} {
		l, err := wal.Open(filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%d", s)), cfg.WAL)
		if err != nil {
			t.Fatalf("reopen shard %d's WAL: %v", s, err)
		}
		if l.Recovered().Checkpoint == nil {
			t.Errorf("shard %d started but left no initial checkpoint", s)
		}
		l.Close()
	}

	cfg.WALDir = ""
	p, err := NewInProcess(objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	part, err := MakePartition(objs, cfg.Shards)
	if err != nil {
		t.Fatal(err)
	}
	for s, shardObjs := range part.Split(objs) {
		items := make([]rtree.Item, len(shardObjs))
		for i, o := range shardObjs {
			items[i] = rtree.Item{Obj: o.ID, MBR: o.MBR}
		}
		if got := p.Router.Stats().Shard(s).Objects.Load(); got != int64(len(items)) {
			t.Errorf("shard %d: Objects gauge %d, want %d", s, got, len(items))
		}
		want := rtree.BulkLoad(cfg.Tree, items, 0.7).AppendImage(nil)
		if got := p.proc(s).cur.Load().Tree().AppendImage(nil); !bytes.Equal(got, want) {
			t.Errorf("shard %d: tree differs from a serial bulk load", s)
		}
	}
}

// TestInProcessReopenFromWAL pins the cold-restart story (prodb stopped and
// started over the same -wal directory): NewInProcess over a WAL dir that
// already holds history must restore every shard from its checkpoint + tail
// rather than re-bulk-loading the dataset and refusing to write an epoch-0
// checkpoint behind the log's end. The reopened cluster keeps matching the
// single-node twin, keeps accepting updates at the resumed epochs, and a
// shard killed after the reopen crash-restarts from the reopened log.
func TestInProcessReopenFromWAL(t *testing.T) {
	objs := genObjects(1200, 17)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	single := buildServer(objs, sizes)
	defer single.Close()
	cfg := crashConfig(t, sizes) // one WALDir, reused across both boots

	p1, err := NewInProcess(objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	upd := newUpdateStream(29, objs)
	for round := 0; round < 4; round++ {
		ops := upd.batch(50)
		single.ExecuteUpdates(&wire.Request{Client: 900, Updates: ops})
		if _, err := p1.Router.RoundTrip(&wire.Request{Client: 900, Updates: ops}); err != nil {
			t.Fatalf("round %d updates: %v", round, err)
		}
	}
	p1.Close()

	p2, err := NewInProcess(objs, cfg)
	if err != nil {
		t.Fatalf("reopen over existing WALs: %v", err)
	}
	defer p2.Close()

	// The restored shards must answer like the uninterrupted single node and
	// accept new updates at the resumed epochs (acks compared op for op).
	ops := upd.batch(40)
	sResp := single.ExecuteUpdates(&wire.Request{Client: 900, Updates: ops})
	cResp, err := p2.Router.RoundTrip(&wire.Request{Client: 900, Updates: ops})
	if err != nil {
		t.Fatalf("post-reopen updates: %v", err)
	}
	for i := range sResp.UpdateResults {
		if sResp.UpdateResults[i] != cResp.UpdateResults[i] {
			t.Fatalf("post-reopen op %d ack %v, want %v", i, cResp.UpdateResults[i], sResp.UpdateResults[i])
		}
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 12; i++ {
		c := geom.Pt(rng.Float64(), rng.Float64())
		q := query.NewRange(geom.RectFromCenter(c, 0.05+rng.Float64()*0.3, 0.05+rng.Float64()*0.3))
		tag := fmt.Sprintf("post-reopen query %d", i)
		sResp, _ := single.Execute(&wire.Request{Client: wire.ClientID(i + 1), Q: q})
		cResp, err := p2.Router.RoundTrip(&wire.Request{Client: wire.ClientID(i + 1), Q: q})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		compareRange(t, tag, sResp, cResp)
	}

	// The reopened shards log to the same directories, so a shard killed
	// after the reopen recovers everything it held.
	p2.Kill(1)
	if err := p2.Restart(1); err != nil {
		t.Fatalf("restart after the reopen: %v", err)
	}
	for i := 0; i < 8; i++ {
		c := geom.Pt(rng.Float64(), rng.Float64())
		q := query.NewRange(geom.RectFromCenter(c, 0.05+rng.Float64()*0.3, 0.05+rng.Float64()*0.3))
		tag := fmt.Sprintf("post-kill query %d", i)
		sResp, _ := single.Execute(&wire.Request{Client: wire.ClientID(i + 20), Q: q})
		cResp, err := p2.Router.RoundTrip(&wire.Request{Client: wire.ClientID(i + 20), Q: q})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		compareRange(t, tag, sResp, cResp)
	}
}

// TestPromotedWritesSurviveReopen: an update the cluster acks after its
// shards were killed must survive a cold reopen from the WAL directory. All
// four shards are killed and restarted from their WALs, four batches are
// applied and acked like the single node's, the cluster closes, and a fresh
// NewInProcess over the same directory must answer 40 range queries like
// the uninterrupted single node. Every ack comes from a WAL-backed server,
// so this holds by construction.
func TestPromotedWritesSurviveReopen(t *testing.T) {
	objs := genObjects(1200, 17)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	single := buildServer(objs, sizes)
	defer single.Close()
	cfg := crashConfig(t, sizes) // one WALDir, reused across both boots

	p1, err := NewInProcess(objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		p1.Kill(s)
		if err := p1.Restart(s); err != nil {
			t.Fatalf("restart shard %d: %v", s, err)
		}
	}
	upd := newUpdateStream(29, objs)
	for round := 0; round < 4; round++ {
		ops := upd.batch(50)
		sResp := single.ExecuteUpdates(&wire.Request{Client: 900, Updates: ops})
		cResp, err := p1.Router.RoundTrip(&wire.Request{Client: 900, Updates: ops})
		if err != nil {
			t.Fatalf("round %d updates: %v", round, err)
		}
		for i := range sResp.UpdateResults {
			if sResp.UpdateResults[i] != cResp.UpdateResults[i] {
				t.Fatalf("round %d op %d ack %v, want %v", round, i, cResp.UpdateResults[i], sResp.UpdateResults[i])
			}
		}
	}
	p1.Close()

	p2, err := NewInProcess(objs, cfg)
	if err != nil {
		t.Fatalf("reopen over existing WALs: %v", err)
	}
	defer p2.Close()
	rng := rand.New(rand.NewSource(43))
	differ := 0
	for i := 0; i < 40; i++ {
		c := geom.Pt(rng.Float64(), rng.Float64())
		q := query.NewRange(geom.RectFromCenter(c, 0.05+rng.Float64()*0.3, 0.05+rng.Float64()*0.3))
		sResp, _ := single.Execute(&wire.Request{Client: wire.ClientID(i + 1), Q: q})
		cResp, err := p2.Router.RoundTrip(&wire.Request{Client: wire.ClientID(i + 1), Q: q})
		if err != nil {
			t.Fatalf("post-reopen query %d: %v", i, err)
		}
		if !slices.Equal(normObjects(sResp), normObjects(cResp)) {
			differ++
		}
	}
	if differ > 0 {
		t.Fatalf("%d of 40 ranges after the reopen differ from the single node: acked updates were lost", differ)
	}
}

// TestEpochTableFlushAll pins that a flush drops every client: a virtual
// epoch committed before it no longer resolves.
func TestEpochTableFlushAll(t *testing.T) {
	tab := newEpochTable(4, defaultMaxClients)
	v := tab.commit(1, 0, []uint64{3, 1}, []rtree.NodeID{1, 1})
	if v == 0 {
		t.Fatalf("commit = %d", v)
	}
	vec := make([]uint64, 2)
	roots := make([]rtree.NodeID, 2)
	if !tab.lookup(1, v, vec, roots) {
		t.Fatal("committed epoch does not resolve")
	}
	tab.flushAll()
	if tab.lookup(1, v, vec, roots) {
		t.Fatal("client survived flushAll")
	}
}

// TestRequestWaitsOutRestart kills a shard and restarts it from another
// goroutine once a request is inside its retry loop: the request must come
// back with the right answer, not the shard-down error.
func TestRequestWaitsOutRestart(t *testing.T) {
	objs := genObjects(800, 29)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	single := buildServer(objs, sizes)
	defer single.Close()
	p, err := NewInProcess(objs, crashConfig(t, sizes))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	p.Kill(2)
	restarted := make(chan error, 1)
	go func() {
		for p.Router.Stats().Shard(2).Retries.Load() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		restarted <- p.Restart(2)
	}()
	q := query.NewRange(geom.R(0, 0, 1, 1))
	cResp, err := p.Router.RoundTrip(&wire.Request{Client: 3, Q: q})
	if rerr := <-restarted; rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatalf("request across the restart: %v", err)
	}
	sResp, _ := single.Execute(&wire.Request{Client: 3, Q: q})
	compareRange(t, "across the restart", sResp, cResp)
	if got := p.Router.Stats().Shard(2).Retries.Load(); got < 1 {
		t.Fatalf("retries = %d, want >= 1", got)
	}
}

// TestKillDuringSplit crash-restarts shards while SplitShard runs. Each
// split's source is down when the split starts, so the split's snapshot
// waits out the source's restart (its retries show on the source's
// Retries counter): the restart lands mid-transfer. The first split runs
// while another shard also crash-restarts and nothing else runs: a kill or
// a restart takes only its shard's own lock, so -race pins that neither
// touches the router's topology. The second runs under queries and an
// update stream, started once the snapshot is waiting, and its source
// crash-restarts once more after the restart. No request may fail: each
// one waits out the restart, and none waits behind a fence. Afterwards
// both splits have landed, answers match the single node, and the object
// gauges add up to the live object count.
func TestKillDuringSplit(t *testing.T) {
	objs := genObjects(1600, 37)
	single, p, cleanup := buildBothElastic(t, objs, 4, InProcessConfig{
		WALDir: t.TempDir(),
		WAL:    wal.Options{NoSync: true},
	})
	defer cleanup()
	crashRestart := func(s int) {
		t.Helper()
		p.Kill(s)
		if err := p.Restart(s); err != nil {
			t.Fatalf("restart shard %d: %v", s, err)
		}
	}
	// splitAcrossRestart starts a split of a down source, runs whileDown
	// once the split's snapshot is retrying against it, restarts the
	// source, then runs after.
	splitAcrossRestart := func(split int, whileDown, after func()) {
		t.Helper()
		retries := &p.Router.Stats().Shard(split).Retries
		base := retries.Load()
		p.Kill(split)
		splitErr := make(chan error, 1)
		go func() { splitErr <- p.SplitShard(split) }()
		for retries.Load() == base {
			select {
			case err := <-splitErr:
				t.Fatalf("split of shard %d ended before its snapshot was seen waiting: %v", split, err)
			case <-time.After(50 * time.Microsecond):
			}
		}
		whileDown()
		if err := p.Restart(split); err != nil {
			t.Fatalf("restart shard %d mid-split: %v", split, err)
		}
		after()
		if err := <-splitErr; err != nil {
			t.Fatalf("split of shard %d across its restart: %v", split, err)
		}
	}

	splitAcrossRestart(0, func() {}, func() { crashRestart(2) })

	upd := newUpdateStream(53, objs)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	stopTraffic := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopTraffic() // a failed round still stops the traffic before cleanup
	traffic := func() {
		wg.Add(2)
		go func() {
			defer wg.Done()
			q := query.NewRange(geom.R(0, 0, 1, 1))
			for c := wire.ClientID(1); ; c++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := p.Router.RoundTrip(&wire.Request{Client: c % 8, Q: q}); err != nil {
					t.Errorf("query during a split and a crash-restart: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ops := upd.batch(8)
				single.ExecuteUpdates(&wire.Request{Client: 901, Updates: ops})
				if _, err := p.Router.RoundTrip(&wire.Request{Client: 901, Updates: ops}); err != nil {
					t.Errorf("updates during a split and a crash-restart: %v", err)
					return
				}
			}
		}()
	}
	splitAcrossRestart(1, traffic, func() { crashRestart(1) })
	stopTraffic()

	if got := len(p.LiveShards()); got != 6 {
		t.Fatalf("%d live shards after two splits, want 6", got)
	}
	checkEquivalence(t, "after splits and crash-restarts", single, p.Router, 5100)
	if got, want := gaugeSum(p), int64(len(upd.rects)); got != want {
		t.Fatalf("object gauges sum to %d after splits and crash-restarts, want %d", got, want)
	}
}

// TestKillBehindQueuedFence crash-restarts a shard while a request is in
// flight and a topology write fence is queued behind that request. The
// kill and the restart take no topology lock, so both finish while the
// fence still waits, and the request in flight waits out the restart and
// is answered in full: a crash-restart never deadlocks behind a queued
// split or merge.
func TestKillBehindQueuedFence(t *testing.T) {
	objs := genObjects(800, 41)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	p, err := NewInProcess(objs, crashConfig(t, sizes))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r := p.Router

	r.topo.RLock() // the request in flight
	fenced := make(chan struct{})
	go func() {
		r.topo.Lock()
		r.topo.Unlock()
		close(fenced)
	}()
	time.Sleep(20 * time.Millisecond) // let the fence queue
	killed := make(chan struct{})
	go func() {
		p.Kill(1)
		close(killed)
	}()
	select {
	case <-killed:
	case <-time.After(10 * time.Second):
		t.Fatal("the kill waited behind the queued fence")
	}
	restarted := make(chan error, 1)
	go func() {
		for p.Router.Stats().Shard(1).Retries.Load() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		restarted <- p.Restart(1)
	}()
	resp, err := r.routeQuery(&wire.Request{Client: 5, Q: query.NewRange(geom.R(0, 0, 1, 1))})
	select {
	case rerr := <-restarted:
		if rerr != nil {
			t.Fatal(rerr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the restart waited behind the queued fence")
	}
	r.topo.RUnlock()
	<-fenced
	if err != nil {
		t.Fatalf("request in flight across the crash-restart: %v", err)
	}
	if len(resp.Objects) != len(objs) {
		t.Fatalf("request in flight across the crash-restart answered %d objects, want %d", len(resp.Objects), len(objs))
	}
}

// TestReopenSeedsObjectGauges: the per-shard object gauges of a cluster
// reopened over its WALs count what each shard restored, not the boot
// dataset's split. 50 objects inserted through the router before the close
// must show in the gauges after the reopen.
func TestReopenSeedsObjectGauges(t *testing.T) {
	objs := genObjects(1200, 17)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	cfg := crashConfig(t, sizes)
	p1, err := NewInProcess(objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	ops := make([]wire.UpdateOp, 50)
	for i := range ops {
		at := geom.RectFromCenter(geom.Pt(rng.Float64(), rng.Float64()), 0.001, 0.001)
		ops[i] = wire.UpdateOp{Kind: wire.UpdateInsert, Obj: rtree.ObjectID(1<<22 + i), To: at, Size: 100}
	}
	if _, err := p1.Router.RoundTrip(&wire.Request{Client: 900, Updates: ops}); err != nil {
		t.Fatal(err)
	}
	p1.Close()

	p2, err := NewInProcess(objs, cfg)
	if err != nil {
		t.Fatalf("reopen over existing WALs: %v", err)
	}
	defer p2.Close()
	resp, err := p2.Router.RoundTrip(&wire.Request{Client: 5, Q: query.NewRange(geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2})})
	if err != nil {
		t.Fatal(err)
	}
	var gauged int64
	for _, sh := range p2.Router.Snapshot().PerShard {
		gauged += sh.Objects
	}
	if want := len(objs) + len(ops); len(resp.Objects) != want {
		t.Fatalf("full-range count after the reopen = %d, want %d", len(resp.Objects), want)
	}
	if gauged != int64(len(resp.Objects)) {
		t.Fatalf("object gauges after the reopen sum to %d, a full-range query counts %d", gauged, len(resp.Objects))
	}
}
