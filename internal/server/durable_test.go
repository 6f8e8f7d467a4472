package server

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wal"
	"repro/internal/wire"
)

// durableBatch generates one randomized move/insert/delete batch against the
// pool of known-live objects, echoing exact stored rectangles (the delete
// contract).
type durablePool struct {
	rng  *rand.Rand
	live map[rtree.ObjectID]geom.Rect
	next rtree.ObjectID
}

func newDurablePool(seed int64, items []rtree.Item) *durablePool {
	p := &durablePool{
		rng:  rand.New(rand.NewSource(seed)),
		live: make(map[rtree.ObjectID]geom.Rect, len(items)),
		next: 1 << 20,
	}
	for _, it := range items {
		p.live[it.Obj] = it.MBR
	}
	return p
}

func (p *durablePool) batch(n int) []wire.UpdateOp {
	ops := make([]wire.UpdateOp, 0, n)
	for i := 0; i < n; i++ {
		x := p.rng.Float64()
		to := geom.RectFromCenter(geom.Pt(p.rng.Float64(), p.rng.Float64()), 0.004, 0.004)
		switch {
		case x < 0.5 && len(p.live) > 0:
			id, from := p.pick()
			ops = append(ops, wire.UpdateOp{Kind: wire.UpdateMove, Obj: id, From: from, To: to})
			p.live[id] = to
		case x < 0.7 && len(p.live) > 0:
			id, from := p.pick()
			ops = append(ops, wire.UpdateOp{Kind: wire.UpdateDelete, Obj: id, From: from})
			delete(p.live, id)
		default:
			id := p.next
			p.next++
			ops = append(ops, wire.UpdateOp{Kind: wire.UpdateInsert, Obj: id, To: to, Size: 64})
			p.live[id] = to
		}
	}
	return ops
}

func (p *durablePool) pick() (rtree.ObjectID, geom.Rect) {
	for id, r := range p.live {
		return id, r
	}
	panic("empty pool")
}

// TestRestoreEquivalence "crashes" a durable server partway through an
// update stream (closing only the log: every ApplyUpdates has returned, so
// all its batches are already appended — the server itself keeps running as
// the uninterrupted reference) and restores a second server from WAL +
// checkpoint: the restored arena must be byte-identical (same image bytes,
// same epoch, same invalidation log) and must keep evolving identically
// under further updates.
func TestRestoreEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		dir := t.TempDir()
		l, err := wal.Open(dir, wal.Options{NoSync: true, CheckpointBytes: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		srv, items := buildServer(t, seed, 800, Config{WAL: l})
		if err := srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		pool := newDurablePool(seed*7+1, items)
		for round := 0; round < 30; round++ {
			srv.ApplyUpdates(pool.batch(20), nil)
		}
		if err := srv.DurabilityErr(); err != nil {
			t.Fatal(err)
		}
		l.Close() // the crash: disk state is frozen here; srv lives on in memory

		l2, err := wal.Open(dir, wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		rec := l2.Recovered()
		if rec.Checkpoint == nil {
			t.Fatal("no checkpoint recovered")
		}
		tail := make([]ReplayRecord, len(rec.Tail))
		for i, r := range rec.Tail {
			tail[i] = ReplayRecord{EpochBefore: r.EpochBefore, Ops: r.Ops}
		}
		restored, err := Restore(rec.Checkpoint, tail, func(rtree.ObjectID) int { return 1000 }, Config{WAL: l2})
		if err != nil {
			t.Fatal(err)
		}

		if got, want := restored.Epoch(), srv.Epoch(); got != want {
			t.Fatalf("seed %d: restored epoch %d, want %d", seed, got, want)
		}
		a := srv.cur.Load()
		b := restored.cur.Load()
		if !bytes.Equal(a.tree.AppendImage(nil), b.tree.AppendImage(nil)) {
			t.Fatalf("seed %d: restored arena differs from the uninterrupted one", seed)
		}
		if a.logFloor < b.logFloor {
			// The restored log starts at the newest checkpoint; everything
			// from there on must match the survivor's records exactly.
			off := 0
			for off < len(a.updates) && a.updates[off].epoch <= b.logFloor {
				off++
			}
			if !reflect.DeepEqual(a.updates[off:], b.updates) {
				t.Fatalf("seed %d: invalidation log tail differs", seed)
			}
		} else if !reflect.DeepEqual(a.updates, b.updates) {
			t.Fatalf("seed %d: invalidation log differs", seed)
		}

		// Identical query results, including supporting index NodeIDs. The
		// requests carry the current epoch: invalidation lists for stale
		// client epochs legitimately differ (the restored log floor is the
		// checkpoint epoch, so pre-checkpoint clients get FlushAll), which is
		// a documented caveat, not a divergence.
		for i := 0; i < 10; i++ {
			c := geom.Pt(pool.rng.Float64(), pool.rng.Float64())
			q := query.NewRange(geom.RectFromCenter(c, 0.1, 0.1))
			reqA := &wire.Request{Client: 7, Q: q, Epoch: srv.Epoch()}
			reqB := &wire.Request{Client: 7, Q: q, Epoch: srv.Epoch()}
			respA, _ := srv.Execute(reqA)
			respB, _ := restored.Execute(reqB)
			if !bytes.Equal(wire.EncodeResponse(nil, respA), wire.EncodeResponse(nil, respB)) {
				t.Fatalf("seed %d: query %d responses differ", seed, i)
			}
		}

		// The restored server keeps evolving identically: same epochs, same
		// results, same arena. srv's appends to the closed log latch a
		// durability error but availability wins — it keeps applying.
		ops := pool.batch(25)
		resA := srv.ApplyUpdates(ops, nil)
		resB := restored.ApplyUpdates(ops, nil)
		if !reflect.DeepEqual(resA, resB) {
			t.Fatalf("seed %d: post-restore update results differ", seed)
		}
		if restored.Epoch() != srv.Epoch() {
			t.Fatalf("seed %d: post-restore epochs differ: %d vs %d", seed, restored.Epoch(), srv.Epoch())
		}
		if !bytes.Equal(srv.cur.Load().tree.AppendImage(nil), restored.cur.Load().tree.AppendImage(nil)) {
			t.Fatalf("seed %d: post-restore arenas diverged", seed)
		}
		if err := restored.DurabilityErr(); err != nil {
			t.Fatal(err)
		}
		restored.Close()
		srv.Close()
		l2.Close()
	}
}

// TestRestoreAfterWriterCheckpoint drives enough bytes through the WAL that
// the writer goroutine checkpoints on its own (ShouldCheckpoint), then
// crash-restores and verifies the arena.
func TestRestoreAfterWriterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{NoSync: true, CheckpointBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	srv, items := buildServer(t, 11, 400, Config{WAL: l})
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pool := newDurablePool(99, items)
	for round := 0; round < 60; round++ {
		srv.ApplyUpdates(pool.batch(16), nil)
	}
	if err := srv.DurabilityErr(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	l.Close()

	l2, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rec := l2.Recovered()
	if rec.CheckpointEpoch == 0 {
		t.Fatal("writer never checkpointed despite the byte threshold")
	}
	tail := make([]ReplayRecord, len(rec.Tail))
	for i, r := range rec.Tail {
		tail[i] = ReplayRecord{EpochBefore: r.EpochBefore, Ops: r.Ops}
	}
	restored, err := Restore(rec.Checkpoint, tail, func(rtree.ObjectID) int { return 1000 }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Epoch() != srv.Epoch() {
		t.Fatalf("epoch %d != %d", restored.Epoch(), srv.Epoch())
	}
	if !bytes.Equal(srv.cur.Load().tree.AppendImage(nil), restored.cur.Load().tree.AppendImage(nil)) {
		t.Fatal("restored arena differs")
	}
}

// TestDurabilityErrLatches wires a failing log and checks the server keeps
// applying updates while latching the first error.
func TestDurabilityErrLatches(t *testing.T) {
	srv, items := buildServer(t, 31, 200, Config{WAL: failingLog{}})
	defer srv.Close()
	pool := newDurablePool(3, items)
	res := srv.ApplyUpdates(pool.batch(4), nil)
	if len(res) != 4 {
		t.Fatalf("results: %v", res)
	}
	if err := srv.DurabilityErr(); err == nil {
		t.Fatal("WAL failure not latched")
	}
	// Updates keep flowing after the failure.
	srv.ApplyUpdates(pool.batch(4), nil)
}

type failingLog struct{}

func (failingLog) Append(uint64, []wire.UpdateOp) error { return errFail }
func (failingLog) ShouldCheckpoint() bool               { return false }
func (failingLog) Checkpoint(uint64, []byte) error      { return errFail }

var errFail = &walTestError{}

type walTestError struct{}

func (*walTestError) Error() string { return "synthetic wal failure" }
