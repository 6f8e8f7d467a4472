package server

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rtree"
	"repro/internal/wire"
)

// Snapshot isolation: the server's concurrency model.
//
// Queries never lock the index. Execute pins the current snapshot — an
// immutable (R*-tree arena, partition-tree page table, invalidation-log
// prefix) triple — with one atomic pointer load plus a reader-count
// increment, runs entirely against it, and unpins. All mutation flows
// through a single writer goroutine that drains a queue of update batches,
// applies each coalesced run of operations to a spare tree buffer, and
// publishes the result as a fresh snapshot with one atomic pointer store.
//
// The spare buffer is a previous snapshot's tree brought up to date: every
// published batch records its first-touch page set, and CatchUp replays
// exactly those pages onto a retired buffer (O(changed pages), not O(index)).
// A retired snapshot is recycled only after its reader count drains, so a
// query that pinned it keeps an internally consistent view for its whole
// lifetime — the "no torn reads" guarantee the equivalence tests pin down.
// NodeIDs are never reused across snapshots (the arena contract), so the
// client-side staleness checks and the epoch invalidation protocol carry
// over unchanged.

// snapshot is one published version of the index. Immutable once stored in
// Server.cur; the tree buffer underneath is recycled by the writer after the
// snapshot is retired (unpublished) and its reader count drains.
type snapshot struct {
	tree *rtree.Tree
	// pages holds every node's partition tree as an immutable packed page in
	// a (NodeID, Gen)-checked slot (rtree.Packed) — the one representation
	// queries read. The table is shared from snapshot to snapshot; the writer
	// swaps in a grown copy only when the tree issued new ids.
	pages *rtree.Packed

	// Invalidation state as of this snapshot: the epoch of the last applied
	// update, the log horizon, and a stable prefix view of the update log
	// (the writer appends to its own tail; it never mutates records below
	// this snapshot's length).
	epoch    uint64
	logFloor uint64
	updates  []updateRecord

	// refs counts pins: 1 for being published, +1 per in-flight reader.
	// drained closes when refs first hits zero (only possible after retire),
	// signalling the writer that the tree buffer may be recycled.
	refs    atomic.Int64
	drained chan struct{}
	once    sync.Once
}

func newSnapshot(tree *rtree.Tree, pages *rtree.Packed, epoch, logFloor uint64, updates []updateRecord) *snapshot {
	v := &snapshot{
		tree:     tree,
		pages:    pages,
		epoch:    epoch,
		logFloor: logFloor,
		updates:  updates,
		drained:  make(chan struct{}),
	}
	v.refs.Store(1) // the published reference
	return v
}

// unpin releases one reference; the last release signals the writer.
func (v *snapshot) unpin() {
	if v.refs.Add(-1) == 0 {
		v.once.Do(func() { close(v.drained) })
	}
}

// pinSnapshot returns the current snapshot with a reader reference held.
// Lock-free: an atomic load, an increment, and a validation re-load. The
// validation catches the race where the writer retires the loaded snapshot
// between the load and the increment — the transient reference is dropped
// and the pin retries on the new snapshot. A retired-but-validated pin is
// fine: the writer recycles a buffer only after the count drains.
func (s *Server) pinSnapshot() *snapshot {
	for {
		v := s.cur.Load()
		v.refs.Add(1)
		if s.cur.Load() == v {
			return v
		}
		v.unpin()
	}
}

// View runs f over a pinned snapshot: the tree is guaranteed immutable and
// internally consistent with the given epoch for the duration of the call.
// This is the safe way to inspect the live index from outside the query path
// (stats, debugging); f must not retain the tree.
func (s *Server) View(f func(tree *rtree.Tree, epoch uint64)) {
	v := s.pinSnapshot()
	defer v.unpin()
	f(v.tree, v.epoch)
}

// --------------------------------------------------------------------------
// The writer.

// updateBatch is one enqueued update request: the operations, their results
// (parallel to ops), and a one-shot ack the writer fires after the batch's
// snapshot is published — so a synchronous caller observes its own write on
// the very next query.
type updateBatch struct {
	ops     []wire.UpdateOp
	results []bool
	done    chan struct{} // buffered(1); writer sends exactly one ack
}

var batchPool = sync.Pool{
	New: func() any { return &updateBatch{done: make(chan struct{}, 1)} },
}

// treeBuf is one tree buffer in the writer's rotation, together with the
// snapshot last published from it and the pages it must replay (CatchUp)
// before it can be written again.
type treeBuf struct {
	tree    *rtree.Tree
	snap    *snapshot      // last snapshot published from this buffer; nil for a fresh clone
	pending []rtree.NodeID // first-touch ids of batches published since snap
}

// writer is the single mutation goroutine plus all its reusable scratch:
// per-operation and per-batch first-touch capture, catch-up deduplication,
// and the master invalidation log. Everything here is owned by the writer
// goroutine exclusively; none of it is ever touched by queries.
type writer struct {
	s    *Server
	q    chan *updateBatch
	quit chan struct{}
	done chan struct{}

	bufs    []*treeBuf
	maxBufs int

	epoch    uint64
	logFloor uint64
	log      []updateRecord

	// Scratch reused across operations and batches (no per-update maps).
	opSeen     map[rtree.NodeID]bool // first-touch dedup within one operation
	opOrder    []rtree.NodeID
	batchSeen  map[rtree.NodeID]bool // union of touches within one published batch
	batchOrder []rtree.NodeID
	syncSeen   map[rtree.NodeID]bool // catch-up id dedup
	syncIDs    []rtree.NodeID
	collected  []*updateBatch
	walOps     []wire.UpdateOp // applied ops of the current publish group
}

// ensureWriter starts the writer goroutine on first use. The server carries
// no background goroutine until the first update arrives, so read-only
// deployments keep the old lifecycle.
func (s *Server) ensureWriter() *writer {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.wr == nil && !s.closed {
		cur := s.cur.Load()
		w := &writer{
			s:    s,
			q:    make(chan *updateBatch, s.cfg.UpdateQueueLen),
			quit: make(chan struct{}),
			done: make(chan struct{}),
			bufs: []*treeBuf{{tree: cur.tree, snap: cur}},
			// A restored server (Restore) publishes its recovered epoch and
			// invalidation log before any writer exists; the writer must
			// continue that history, not restart it at zero.
			epoch:     cur.epoch,
			logFloor:  cur.logFloor,
			log:       cur.updates,
			maxBufs:   s.cfg.MaxSnapshots,
			opSeen:    make(map[rtree.NodeID]bool),
			batchSeen: make(map[rtree.NodeID]bool),
			syncSeen:  make(map[rtree.NodeID]bool),
		}
		s.wr = w
		go w.run()
	}
	return s.wr
}

// Close stops the writer goroutine, waiting for queued batches to be applied
// and acknowledged. It is idempotent and safe to call from multiple
// goroutines. Callers must stop issuing updates before closing; an update
// racing Close may be dropped (its waiter is released with all-false
// results). Queries remain valid after Close — the published snapshot stays.
func (s *Server) Close() {
	s.wmu.Lock()
	alreadyClosed := s.closed
	w := s.wr
	s.closed = true
	s.wmu.Unlock()
	if w == nil {
		return
	}
	if alreadyClosed {
		// Idempotent: a second Close just waits for the first to finish.
		<-w.done
		return
	}
	close(w.quit)
	<-w.done
}

// ApplyUpdates applies a batch of operations through the writer queue and
// blocks until the batch's snapshot is published. It returns one result per
// operation, appended into results (pass nil, or a slice to reuse). Safe for
// any number of concurrent callers; batches queued together are applied in
// arrival order and usually coalesce into a single published snapshot.
func (s *Server) ApplyUpdates(ops []wire.UpdateOp, results []bool) []bool {
	results = results[:0]
	if len(ops) == 0 {
		return results
	}
	w := s.ensureWriter()
	if w == nil { // closed: drop with all-false results
		return append(results, make([]bool, len(ops))...)
	}
	b := batchPool.Get().(*updateBatch)
	b.ops = append(b.ops[:0], ops...)
	b.results = append(b.results[:0], make([]bool, len(ops))...)
	select {
	case w.q <- b:
	case <-w.done:
		batchPool.Put(b)
		return append(results, make([]bool, len(ops))...)
	}
	select {
	case <-b.done:
	case <-w.done:
		// The writer exited. It drains the queue on quit, so the batch may
		// still have been applied and acked — when both channels are ready,
		// select picks arbitrarily, and reporting all-false for a published
		// batch would lie about durable state. Only an absent ack means the
		// batch was dropped (and then it cannot be pooled: the writer might
		// still hold it).
		select {
		case <-b.done:
		default:
			return append(results, make([]bool, len(ops))...)
		}
	}
	results = append(results, b.results...)
	batchPool.Put(b)
	return results
}

// applyOne is the synchronous single-operation path behind the compatibility
// mutators (InsertObject, DeleteObject, MoveObject).
func (s *Server) applyOne(op wire.UpdateOp) bool {
	var buf [1]bool
	res := s.ApplyUpdates([]wire.UpdateOp{op}, buf[:0])
	return len(res) == 1 && res[0]
}

// run is the writer loop: block for the first batch, coalesce everything
// else already queued, apply, publish, ack. On quit it drains the queue so
// no properly enqueued waiter is left hanging.
func (w *writer) run() {
	defer close(w.done)
	for {
		select {
		case b := <-w.q:
			w.apply(w.collect(b))
		case <-w.quit:
			for {
				select {
				case b := <-w.q:
					w.apply(w.collect(b))
				default:
					return
				}
			}
		}
	}
}

// collect gathers already-queued batches behind first, up to the configured
// operation budget — the batch coalescer. Every collected batch is applied
// under one catch-up and one published snapshot.
func (w *writer) collect(first *updateBatch) []*updateBatch {
	batches := append(w.collected[:0], first)
	total := len(first.ops)
	for total < w.s.cfg.UpdateBatchOps {
		select {
		case b := <-w.q:
			batches = append(batches, b)
			total += len(b.ops)
		default:
			w.collected = batches
			return batches
		}
	}
	w.collected = batches
	return batches
}

// apply brings a spare buffer up to date, applies every operation of the
// collected batches to it, publishes the buffer as the new snapshot, retires
// the old one, and acks the waiters.
func (w *writer) apply(batches []*updateBatch) {
	cur := w.s.cur.Load()
	buf := w.acquireBuf(cur)
	w.catchUp(buf, cur)

	t := buf.tree
	for _, id := range w.batchOrder {
		delete(w.batchSeen, id)
	}
	w.batchOrder = w.batchOrder[:0]
	w.walOps = w.walOps[:0]
	epochBefore := w.epoch
	t.SetTouchHook(w.observeTouch)
	changed := false
	for _, b := range batches {
		for i, op := range b.ops {
			w.opOrder = w.opOrder[:0]
			ok := w.applyOp(t, op)
			b.results[i] = ok
			for _, id := range w.opOrder {
				delete(w.opSeen, id)
			}
			if !ok {
				continue
			}
			changed = true
			w.walOps = append(w.walOps, op)
			w.epoch++
			rec := updateRecord{epoch: w.epoch, nodes: append([]rtree.NodeID(nil), w.opOrder...)}
			if op.Kind != wire.UpdateInsert {
				rec.objs = []rtree.ObjectID{op.Obj}
			}
			w.log = append(w.log, rec)
			for _, id := range w.opOrder {
				if !w.batchSeen[id] {
					w.batchSeen[id] = true
					w.batchOrder = append(w.batchOrder, id)
				}
			}
		}
	}
	t.SetTouchHook(nil)

	if changed {
		// Group commit: the whole publish group becomes durable in one
		// append+fsync before its snapshot is visible to any reader. A
		// batch is acked only after this returns, so an acked update can
		// never be lost to a crash.
		if wal := w.s.wal(); wal != nil {
			if err := wal.Append(epochBefore, w.walOps); err != nil {
				w.s.failDurability(err)
			}
		}
		w.trimLog()
		nw := newSnapshot(t, cur.pages.Grow(t.NodeSpan()), w.epoch, w.logFloor, w.log)
		for _, b := range w.bufs {
			if b != buf {
				b.pending = append(b.pending, w.batchOrder...)
			}
		}
		buf.snap = nw
		w.s.cur.Store(nw)
		cur.unpin() // retire: drop the published reference of the old snapshot
	}
	for _, b := range batches {
		b.done <- struct{}{}
	}
	if !changed {
		return
	}
	if fn := w.s.cfg.OnApplied; fn != nil {
		fn(epochBefore, w.walOps)
	}
	w.prewarm(buf.snap)
	// Checkpoint between publish groups, still on the writer goroutine: the
	// published tree is immutable (the next group mutates a spare buffer),
	// and no update is in flight to race the extras overlay.
	if wal := w.s.wal(); wal != nil && wal.ShouldCheckpoint() {
		v := w.s.cur.Load()
		if err := wal.Checkpoint(v.epoch, w.s.checkpointPayload(v)); err != nil {
			w.s.failDurability(err)
		}
	}
}

// prewarmPageBudget bounds how many touched pages one batch prewarm rebuilds.
// With the paper's 204-entry pages a single partition-tree build costs
// hundreds of microseconds; rebuilding every page a big batch touched would
// turn the writer into a CPU hog that starves queries on small core counts.
// Pages past the budget are rebuilt lazily by the first reader that actually
// visits them (CAS-shared, so the cost is paid once per page either way).
const prewarmPageBudget = 24

// prewarm maintains the page table for the pages a publish group touched:
// it retires the slots of nodes the group freed (NodeIDs are never reused, so
// nothing else would ever drop them) and rebuilds the packed pages of the
// rest so queries find them warm. Rebuilding is by far the most expensive
// consequence of an update (O(fanout log² fanout) with sorting), and paying
// it here — on the writer, after the waiters are acked — keeps it off the
// query path. It runs after the publish on purpose: before it, readers of the
// outgoing snapshot would find slot generations newer than their pages and
// rebuild without being able to share, while a reader of the new snapshot
// that beats the writer to a page simply CASes its build in first and the
// prewarm finds the slot warm.
//
// Internal pages come first: every indexed query descends through them, so
// a cold internal page taxes all readers, while a cold leaf taxes only the
// queries whose region it covers. The page budget and the regular yields
// keep the writer's CPU burst bounded regardless of batch size.
func (w *writer) prewarm(v *snapshot) {
	for _, id := range w.batchOrder {
		if _, ok := v.tree.Node(id); !ok {
			v.pages.Retire(id)
		}
	}
	built := 0
	warm := func(internalPass bool) {
		for _, id := range w.batchOrder {
			if built >= prewarmPageBudget {
				return
			}
			n, ok := v.tree.Node(id)
			if !ok || len(n.Entries) == 0 || (n.Level > 0) != internalPass {
				continue
			}
			v.pages.Page(n)
			built++
			if built%4 == 0 {
				runtime.Gosched() // bound the unpreempted burst
			}
		}
	}
	warm(true)
	warm(false)
}

// observeTouch is the tree's touch hook during operation application: it
// records first-touch order per operation into writer-owned scratch (the
// per-update map allocations of the locked design are gone).
func (w *writer) observeTouch(id rtree.NodeID) {
	if !w.opSeen[id] {
		w.opSeen[id] = true
		w.opOrder = append(w.opOrder, id)
	}
}

// applyOp performs one mutation against the write buffer (the shared core
// lives in durable.go so Restore's replay applies identically).
func (w *writer) applyOp(t *rtree.Tree, op wire.UpdateOp) bool {
	return applyTreeOp(w.s, t, op)
}

// acquireBuf returns a writable tree buffer: a drained retired buffer when
// one is free, a fresh clone while the rotation is below its cap, otherwise
// it blocks until the oldest retired snapshot's readers drain.
func (w *writer) acquireBuf(cur *snapshot) *treeBuf {
	var oldest *treeBuf
	for _, b := range w.bufs {
		if b.snap == cur {
			continue // the published buffer is read-only
		}
		if b.snap == nil {
			return b // fresh clone, never published
		}
		select {
		case <-b.snap.drained:
			w.waitQuiescent(b.snap)
			return b
		default:
		}
		if oldest == nil || b.snap.epoch < oldest.snap.epoch {
			oldest = b
		}
	}
	if len(w.bufs) < w.maxBufs {
		nb := &treeBuf{tree: cur.tree.Clone()}
		w.bufs = append(w.bufs, nb)
		return nb
	}
	<-oldest.snap.drained
	w.waitQuiescent(oldest.snap)
	return oldest
}

// waitQuiescent spins out the tiny pin/validate window: a reader that loaded
// the snapshot pointer just before retirement may still hold a transient
// reference it is about to drop (it never dereferences the snapshot after
// failing validation).
func (w *writer) waitQuiescent(v *snapshot) {
	for v.refs.Load() != 0 {
		runtime.Gosched()
	}
}

// catchUp replays onto buf every page changed since it was last current,
// deduplicated through writer scratch, making it identical to cur's tree.
func (w *writer) catchUp(buf *treeBuf, cur *snapshot) {
	if len(buf.pending) == 0 {
		return
	}
	w.syncIDs = w.syncIDs[:0]
	for _, id := range buf.pending {
		if !w.syncSeen[id] {
			w.syncSeen[id] = true
			w.syncIDs = append(w.syncIDs, id)
		}
	}
	for _, id := range w.syncIDs {
		delete(w.syncSeen, id)
	}
	buf.tree.CatchUp(cur.tree, w.syncIDs)
	buf.pending = buf.pending[:0]
}

// trimLog bounds the invalidation log. The survivors are copied into a fresh
// array: retired snapshots keep stable views of the old one.
func (w *writer) trimLog() {
	limit := w.s.cfg.UpdateLogLimit
	if len(w.log) <= limit {
		return
	}
	drop := len(w.log) - limit
	w.logFloor = w.log[drop-1].epoch
	fresh := make([]updateRecord, 0, limit+limit/4)
	w.log = append(fresh, w.log[drop:]...)
}
