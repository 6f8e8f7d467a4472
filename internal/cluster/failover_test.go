package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The failover contract: a shard can die mid-stream and the cluster's
// answers stay exactly what a single-node server would produce — recovered
// from WAL + checkpoint after a crash-restart, or served by the promoted
// warm replica when the primary never comes back. These tests drive the
// same randomized update stream as the equivalence suite and kill shards
// while it flows.

// crashConfig is the chaos-tuned cluster: durability on, sync off (tests),
// small checkpoints so the writer checkpoints mid-stream, and a hair
// trigger on failover so a killed shard redials within one sub-query.
func crashConfig(t *testing.T, sizes map[rtree.ObjectID]int, replicas bool) InProcessConfig {
	return InProcessConfig{
		Shards:        4,
		Tree:          rtree.Params{MaxEntries: testMaxEntries},
		Sizer:         func(id rtree.ObjectID) int { return sizes[id] },
		WALDir:        t.TempDir(),
		WAL:           wal.Options{NoSync: true, CheckpointBytes: 8 << 10},
		Replicas:      replicas,
		RetryAttempts: 3,
		RetryBackoff:  1,
		FailThreshold: 1,
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
			p, err := NewInProcess(objs, crashConfig(t, sizes, false))
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
				p.Kill(victim)
				if err := p.Restart(victim); err != nil {
					t.Fatalf("round %d: restart shard %d: %v", round, victim, err)
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
			snap := router.Stats().Snapshot()
			if snap.Redials() == 0 {
				t.Fatal("no redials counted despite six crash-restarts")
			}
			if snap.Failovers() != 0 {
				t.Fatalf("replica promotions counted (%d) in a replica-less cluster", snap.Failovers())
			}
		})
	}
}

// TestClusterReplicaFailover kills a primary that never comes back: the
// router promotes the warm standby, queries keep answering with zero
// errors, results still match the single-node server (the standby applied
// every acked batch before the kill), and post-failover updates land on the
// replica so the equivalence keeps holding.
func TestClusterReplicaFailover(t *testing.T) {
	objs := genObjects(1500, 9)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	single := buildServer(objs, sizes)
	defer single.Close()
	p, err := NewInProcess(objs, crashConfig(t, sizes, true))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	router := p.Router

	upd := newUpdateStream(13, objs)
	for round := 0; round < 3; round++ {
		ops := upd.batch(40)
		single.ExecuteUpdates(&wire.Request{Client: 900, Updates: ops})
		if _, err := router.RoundTrip(&wire.Request{Client: 900, Updates: ops}); err != nil {
			t.Fatalf("round %d updates: %v", round, err)
		}
	}

	p.Kill(2) // never restarted: the replica is the only way forward

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		if i == 10 {
			// Updates after the promotion land on the replica.
			ops := upd.batch(30)
			single.ExecuteUpdates(&wire.Request{Client: 900, Updates: ops})
			if _, err := router.RoundTrip(&wire.Request{Client: 900, Updates: ops}); err != nil {
				t.Fatalf("post-failover updates: %v", err)
			}
		}
		c := geom.Pt(rng.Float64(), rng.Float64())
		q := query.NewRange(geom.RectFromCenter(c, 0.05+rng.Float64()*0.3, 0.05+rng.Float64()*0.3))
		tag := fmt.Sprintf("query %d", i)
		sResp, _ := single.Execute(&wire.Request{Client: wire.ClientID(i + 1), Q: q})
		cResp, err := router.RoundTrip(&wire.Request{Client: wire.ClientID(i + 1), Q: q})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		compareRange(t, tag, sResp, cResp)
	}
	snap := router.Stats().Snapshot()
	if snap.Failovers() == 0 {
		t.Fatal("no replica promotion counted")
	}
	if got := snap.PerShard[2].Failovers; got != 1 {
		t.Fatalf("shard 2 failovers = %d, want 1", got)
	}
}

// TestStartProcFailureReleasesEverything fails a shard process's primary
// after its WAL, standby and replication stream are up: the failed start
// must release all three — no replicator or standby-writer goroutine, no
// open log file — and leave the slot unregistered.
func TestStartProcFailureReleasesEverything(t *testing.T) {
	objs := genObjects(300, 7)
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{Obj: o.ID, MBR: o.MBR}
	}
	sizer := func(rtree.ObjectID) int { return 1 }
	dir := t.TempDir()
	p := &InProcess{cfg: InProcessConfig{
		Tree:     rtree.Params{MaxEntries: testMaxEntries},
		WALDir:   dir,
		WAL:      wal.Options{NoSync: true},
		Replicas: true,
	}}
	goroutines, files := runtime.NumGoroutine(), openFiles()

	standbys := 0
	_, err := p.startProc(0, sizer, func(cfg server.Config, _ *wal.Recovery) (*server.Server, bool, error) {
		if cfg.WAL != nil {
			return nil, false, errors.New("primary refuses to start")
		}
		standbys++
		rep := server.New(rtree.BulkLoad(p.cfg.Tree, items, bulkFill), sizer, cfg)
		// One applied batch starts the standby's writer goroutine, as the
		// replication stream would.
		rep.ReleaseResponse(rep.ExecuteUpdates(&wire.Request{Updates: []wire.UpdateOp{
			{Kind: wire.UpdateDelete, Obj: 1 << 30, From: objs[0].MBR},
		}}))
		return rep, false, nil
	})
	if err == nil || standbys != 1 {
		t.Fatalf("startProc: err=%v after %d standby builds; want the primary's failure after one", err, standbys)
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
// name shard 2 and release the shards that did start — standbys,
// replication streams and logs — leaving each of their directories with an
// initial checkpoint that reopens. A boot that succeeds must leave the
// counts, the router's object gauges and every shard's tree a serial build
// gives.
func TestNewInProcessShardFailureReleasesEverything(t *testing.T) {
	objs := genObjects(1200, 31)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	cfg := crashConfig(t, sizes, true)
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
		if p.Counts[s] != len(items) {
			t.Errorf("shard %d: Counts %d, want %d", s, p.Counts[s], len(items))
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
// already holds history must restore every shard — primary and standby alike
// — from its checkpoint + tail rather than re-bulk-loading the dataset and
// refusing to write an epoch-0 checkpoint behind the log's end. The reopened
// cluster keeps matching the single-node twin, keeps accepting updates at
// the resumed epochs, and can still promote its (restored) standbys.
func TestInProcessReopenFromWAL(t *testing.T) {
	objs := genObjects(1200, 17)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	single := buildServer(objs, sizes)
	defer single.Close()
	cfg := crashConfig(t, sizes, true) // one WALDir, reused across both boots

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

	// The standbys were restored from the same checkpoint + tail, so a
	// primary killed after the reopen still promotes cleanly.
	p2.Kill(1)
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
	if p2.Router.Stats().Snapshot().Failovers() == 0 {
		t.Fatal("no replica promotion counted after the reopen")
	}
}

// TestClusterFailoverFlushesClients checks the consistency seam of a
// promotion: a client holding a pre-failover virtual epoch is told to drop
// its cache (FlushAll) rather than being fed invalidation windows the
// promoted standby cannot vouch for.
func TestClusterFailoverFlushesClients(t *testing.T) {
	objs := genObjects(800, 21)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	p, err := NewInProcess(objs, crashConfig(t, sizes, true))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	router := p.Router

	upd := newUpdateStream(4, objs)
	if _, err := router.RoundTrip(&wire.Request{Client: 900, Updates: upd.batch(30)}); err != nil {
		t.Fatal(err)
	}
	q := query.NewRange(geom.R(0, 0, 1, 1))
	resp, err := router.RoundTrip(&wire.Request{Client: 7, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	base := resp.Epoch
	if base == 0 {
		t.Fatal("no virtual epoch established before the failover")
	}

	p.Kill(1)
	resp, err = router.RoundTrip(&wire.Request{Client: 7, Epoch: base, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.FlushAll {
		t.Fatal("pre-failover epoch answered without FlushAll after replica promotion")
	}
}

// TestEpochTableFlushAll pins the generation fencing: a flush drops every
// client, and a commit that resolved its base before the flush is refused.
func TestEpochTableFlushAll(t *testing.T) {
	tab := newEpochTable(4, defaultMaxClients)
	gen := tab.generation()
	v, ok := tab.commit(1, 0, []uint64{3, 1}, []rtree.NodeID{1, 1}, gen)
	if !ok || v == 0 {
		t.Fatalf("commit = (%d, %v)", v, ok)
	}
	vec := make([]uint64, 2)
	roots := make([]rtree.NodeID, 2)
	tab.flushAll()
	if tab.lookup(1, v, vec, roots) {
		t.Fatal("client survived flushAll")
	}
	if _, ok := tab.commit(1, v, []uint64{4, 1}, []rtree.NodeID{1, 1}, gen); ok {
		t.Fatal("stale-generation commit accepted")
	}
	if _, ok := tab.commit(1, 0, []uint64{4, 1}, []rtree.NodeID{1, 1}, tab.generation()); !ok {
		t.Fatal("fresh-generation commit refused")
	}
}
