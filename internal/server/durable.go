package server

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rtree"
	"repro/internal/wire"
)

// Durability: the server side of the per-shard WAL + checkpoint scheme
// (docs/DURABILITY.md). The writer goroutine logs each applied batch through
// Config.WAL before publishing its snapshot, and periodically asks the log
// to checkpoint a full serialization of the published state; Restore
// rebuilds a server from checkpoint + replayed tail so it resumes with the
// identical pages, NodeIDs, generations, and epoch it crashed with — which
// is what keeps warm client caches and the cluster's virtual-epoch rings
// valid across the restart.

// BatchLog is the write-ahead log the writer goroutine drives. It is
// satisfied structurally by *wal.Log; the server never imports the wal
// package so simulations and tests stay storage-free.
type BatchLog interface {
	// Append durably logs one applied batch before its snapshot publishes.
	Append(epochBefore uint64, ops []wire.UpdateOp) error
	// ShouldCheckpoint reports whether the log wants a checkpoint.
	ShouldCheckpoint() bool
	// Checkpoint atomically replaces the checkpoint payload (captured at
	// epoch) and truncates the log.
	Checkpoint(epoch uint64, payload []byte) error
}

// ReplayRecord is one recovered WAL record handed to Restore. It mirrors
// wal.Record without importing it (the cluster layer converts).
type ReplayRecord struct {
	EpochBefore uint64
	Ops         []wire.UpdateOp
}

// walFailure wraps the latched first WAL error.
type walFailure struct{ err error }

// DurabilityErr returns the first WAL append/checkpoint failure, or nil
// while the log is healthy. After a failure the server keeps serving and
// applying updates but stops logging: the operator decides whether a
// non-durable shard may keep running.
func (s *Server) DurabilityErr() error {
	if f := s.durErr.Load(); f != nil {
		return f.err
	}
	return nil
}

func (s *Server) failDurability(err error) {
	s.durErr.CompareAndSwap(nil, &walFailure{err: err})
}

// wal returns the configured batch log, nil once durability has failed.
func (s *Server) wal() BatchLog {
	if s.cfg.WAL == nil || s.durErr.Load() != nil {
		return nil
	}
	return s.cfg.WAL
}

// Checkpoint serializes the currently published snapshot through the
// configured WAL. Call it once right after construction (before updates
// flow) so the log has a base image to truncate against; afterwards the
// writer goroutine checkpoints on its own schedule. Concurrent updates
// would race the extras overlay, so Checkpoint must not overlap them.
func (s *Server) Checkpoint() error {
	w := s.wal()
	if w == nil {
		return fmt.Errorf("server: no usable WAL configured")
	}
	v := s.cur.Load()
	if err := w.Checkpoint(v.epoch, s.checkpointPayload(v)); err != nil {
		s.failDurability(err)
		return err
	}
	return nil
}

// Checkpoint payload layout: version, epoch, extras overlay (post-build
// object sizes), then the exact tree image. The epoch rides inside the
// payload as well as in the wal header so the payload is self-describing.
const ckptPayloadVersion = 1

func (s *Server) checkpointPayload(v *snapshot) []byte {
	b := []byte{ckptPayloadVersion}
	b = appendUvarint(b, v.epoch)
	var extras [][2]uint64
	s.extraSizes.Range(func(k, val any) bool {
		extras = append(extras, [2]uint64{uint64(k.(rtree.ObjectID)), uint64(val.(int))})
		return true
	})
	b = appendUvarint(b, uint64(len(extras)))
	for _, e := range extras {
		b = appendUvarint(b, e[0])
		b = appendUvarint(b, e[1])
	}
	return v.tree.AppendImage(b)
}

// Restore rebuilds a server from a checkpoint payload plus the WAL tail that
// followed it. The tail must chain gaplessly from the checkpoint epoch and
// every logged operation must re-apply cleanly — the WAL records only
// operations that succeeded, so any divergence means the log and checkpoint
// disagree and the restore is refused rather than silently wrong.
func Restore(checkpoint []byte, tail []ReplayRecord, sizes ObjectSizer, cfg Config) (*Server, error) {
	epoch, extras, tree, err := decodeCheckpointPayload(checkpoint)
	if err != nil {
		return nil, err
	}
	s := newServer(sizes, cfg)
	for _, e := range extras {
		s.extraSizes.Store(rtree.ObjectID(e[0]), int(e[1]))
	}
	if len(extras) > 0 {
		s.hasExtras.Store(true)
	}

	// Replay the tail exactly as the writer applied it, rebuilding the
	// invalidation log with the same per-epoch first-touch node sets: the
	// tree mutates identically, so the touch stream is identical.
	log := newOpLog(s, epoch, nil)
	tree.SetTouchHook(log.observe)
	defer tree.SetTouchHook(nil)
	for _, rec := range tail {
		if rec.EpochBefore != log.epoch {
			return nil, fmt.Errorf("server: replay gap: record at epoch %d, expected %d", rec.EpochBefore, log.epoch)
		}
		for _, op := range rec.Ops {
			if !log.apply(tree, op) {
				return nil, fmt.Errorf("server: replay diverged at epoch %d: op %v obj %d did not apply", log.epoch, op.Kind, op.Obj)
			}
		}
	}

	s.cur.Store(&snapshot{tree: tree, pages: rtree.Pack(tree), epoch: log.epoch, logFloor: epoch, updates: log.recs})
	return s, nil
}

func decodeCheckpointPayload(b []byte) (epoch uint64, extras [][2]uint64, tree *rtree.Tree, err error) {
	fail := func(msg string) (uint64, [][2]uint64, *rtree.Tree, error) {
		return 0, nil, nil, fmt.Errorf("server: malformed checkpoint: %s", msg)
	}
	if len(b) < 1 || b[0] != ckptPayloadVersion {
		return fail("bad version")
	}
	b = b[1:]
	var ok bool
	if epoch, b, ok = readUvarint(b); !ok {
		return fail("truncated epoch")
	}
	n, b, ok := readUvarint(b)
	if !ok || n > uint64(len(b)) {
		return fail("bad extras count")
	}
	extras = make([][2]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		var id, sz uint64
		if id, b, ok = readUvarint(b); !ok {
			return fail("truncated extras")
		}
		if sz, b, ok = readUvarint(b); !ok {
			return fail("truncated extras")
		}
		extras = append(extras, [2]uint64{id, sz})
	}
	tree, terr := rtree.ReadImage(b)
	if terr != nil {
		return 0, nil, nil, fmt.Errorf("server: checkpoint tree: %w", terr)
	}
	return epoch, extras, tree, nil
}

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func readUvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, false
	}
	return v, b[n:], true
}

// opLog applies update operations to a tree and keeps the invalidation log
// they produce: one record per applied operation, naming the pages it touched
// in first-touch order. The writer's live path (snapshot.go) and Restore's
// replay both go through it, so the two can never drift apart.
type opLog struct {
	s     *Server
	epoch uint64 // of the last applied operation
	recs  []updateRecord

	// First-touch capture of the operation being applied; order keeps the
	// last applied operation's pages until the next apply.
	seen  map[rtree.NodeID]bool
	order []rtree.NodeID
}

func newOpLog(s *Server, epoch uint64, recs []updateRecord) opLog {
	return opLog{s: s, epoch: epoch, recs: recs, seen: make(map[rtree.NodeID]bool)}
}

// observe is the touch hook of the tree operations are applied to.
func (l *opLog) observe(id rtree.NodeID) {
	if !l.seen[id] {
		l.seen[id] = true
		l.order = append(l.order, id)
	}
}

// apply performs op against t, whose touch hook must be l.observe. An
// operation that applies gets the next epoch and its record; one that does
// not leaves tree and log as they were.
func (l *opLog) apply(t *rtree.Tree, op wire.UpdateOp) bool {
	l.order = l.order[:0]
	ok := applyTreeOp(l.s, t, op)
	for _, id := range l.order {
		delete(l.seen, id)
	}
	if !ok {
		return false
	}
	l.epoch++
	rec := updateRecord{epoch: l.epoch, nodes: append([]rtree.NodeID(nil), l.order...)}
	if op.Kind != wire.UpdateInsert {
		rec.objs = []rtree.ObjectID{op.Obj}
	}
	l.recs = append(l.recs, rec)
	return true
}

// applyTreeOp performs one mutation against a tree, maintaining the extras
// overlay. An insert or move whose target is not a rectangle the tree can
// hold (a coordinate NaN or infinite, or Min > Max) is refused before it
// changes anything.
func applyTreeOp(s *Server, t *rtree.Tree, op wire.UpdateOp) bool {
	if op.Kind != wire.UpdateDelete && !op.To.Usable() {
		return false
	}
	switch op.Kind {
	case wire.UpdateInsert:
		t.Insert(op.Obj, op.To)
		size := op.Size
		if size < 0 {
			size = 0
		}
		s.extraSizes.Store(op.Obj, size)
		s.hasExtras.Store(true)
		return true
	case wire.UpdateDelete:
		return t.Delete(op.Obj, op.From)
	case wire.UpdateMove:
		if !t.Delete(op.Obj, op.From) {
			return false
		}
		t.Insert(op.Obj, op.To)
		return true
	default:
		return false
	}
}
