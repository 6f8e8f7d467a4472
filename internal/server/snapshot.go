package server

import (
	"runtime"
	"sync"

	"repro/internal/rtree"
	"repro/internal/wire"
)

// Snapshot isolation: the server's concurrency model.
//
// Queries never lock the index. Execute loads the current snapshot — an
// immutable (R*-tree version, partition-tree page table, invalidation-log
// prefix) triple — with one atomic pointer load and runs entirely against
// it. All mutation flows through a single writer goroutine that drains a
// queue of update batches, applies each coalesced run of operations to a
// Clone of the published tree, and publishes the result as a fresh snapshot
// with one atomic pointer store.
//
// A clone shares every page with the tree it came from and copies the pages
// it writes (rtree.Tree.Clone), so a version costs O(pages the batch
// touched), and a published version is never written again: a query that
// loaded it keeps an internally consistent view for as long as it likes —
// the "no torn reads" guarantee the equivalence tests pin down — without
// holding the writer up. The garbage collector retires a version when its
// last reader lets go. NodeIDs are never reused across versions, so the
// client-side staleness checks and the epoch invalidation protocol carry
// over unchanged.

// snapshot is one published version of the index, immutable from the moment
// it is stored in Server.cur.
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
}

// View runs f over the current snapshot: the tree is immutable and
// internally consistent with the given epoch, during the call and for as
// long as f's caller keeps it. This is the safe way to inspect the live
// index from outside the query path (stats, debugging).
func (s *Server) View(f func(tree *rtree.Tree, epoch uint64)) {
	v := s.cur.Load()
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

const (
	// updateQueueLen is the capacity of the writer's batch queue.
	updateQueueLen = 256
	// updateBatchOps caps how many queued operations the writer coalesces
	// into one published snapshot.
	updateBatchOps = 512
)

var batchPool = sync.Pool{
	New: func() any { return &updateBatch{done: make(chan struct{}, 1)} },
}

// writer is the single mutation goroutine plus all its reusable scratch:
// the master invalidation log with its per-operation first-touch capture,
// and the per-batch touch set. Everything here is owned by the writer
// goroutine exclusively; none of it is ever touched by queries.
type writer struct {
	s    *Server
	q    chan *updateBatch
	quit chan struct{}
	done chan struct{}

	log      opLog
	logFloor uint64

	// Scratch reused across batches (no per-update maps).
	batchSeen  map[rtree.NodeID]bool // union of touches within one published batch
	batchOrder []rtree.NodeID
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
			q:    make(chan *updateBatch, updateQueueLen),
			quit: make(chan struct{}),
			done: make(chan struct{}),
			// A restored server (Restore) publishes its recovered epoch and
			// invalidation log before any writer exists; the writer must
			// continue that history, not restart it at zero.
			log:       newOpLog(s, cur.epoch, cur.updates),
			logFloor:  cur.logFloor,
			batchSeen: make(map[rtree.NodeID]bool),
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

// collect gathers already-queued batches behind first, up to updateBatchOps
// operations — the batch coalescer. Every collected batch is applied
// to one clone and published as one snapshot.
func (w *writer) collect(first *updateBatch) []*updateBatch {
	batches := append(w.collected[:0], first)
	total := len(first.ops)
	for total < updateBatchOps {
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

// apply clones the published tree, applies every operation of the collected
// batches to the clone, publishes it as the new snapshot, and acks the
// waiters. The outgoing snapshot is simply dropped: its readers keep it alive
// for as long as they need it.
func (w *writer) apply(batches []*updateBatch) {
	cur := w.s.cur.Load()
	t := cur.tree.Clone()
	for _, id := range w.batchOrder {
		delete(w.batchSeen, id)
	}
	w.batchOrder = w.batchOrder[:0]
	w.walOps = w.walOps[:0]
	epochBefore := w.log.epoch
	t.SetTouchHook(w.log.observe)
	for _, b := range batches {
		for i, op := range b.ops {
			ok := w.log.apply(t, op)
			b.results[i] = ok
			if !ok {
				continue
			}
			w.walOps = append(w.walOps, op)
			for _, id := range w.log.order {
				if !w.batchSeen[id] {
					w.batchSeen[id] = true
					w.batchOrder = append(w.batchOrder, id)
				}
			}
		}
	}
	t.SetTouchHook(nil)
	changed := w.log.epoch != epochBefore

	var nw *snapshot
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
		nw = &snapshot{
			tree:     t,
			pages:    cur.pages.Grow(t.NodeSpan()),
			epoch:    w.log.epoch,
			logFloor: w.logFloor,
			updates:  w.log.recs,
		}
		w.s.cur.Store(nw)
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
	w.prewarm(nw)
	// Checkpoint between publish groups, still on the writer goroutine: no
	// update is in flight to race the extras overlay.
	if wal := w.s.wal(); wal != nil && wal.ShouldCheckpoint() {
		if err := wal.Checkpoint(nw.epoch, w.s.checkpointPayload(nw)); err != nil {
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

// trimLog bounds the invalidation log. The survivors are copied into a fresh
// array: retired snapshots keep stable views of the old one.
func (w *writer) trimLog() {
	limit := w.s.cfg.UpdateLogLimit
	recs := w.log.recs
	if len(recs) <= limit {
		return
	}
	drop := len(recs) - limit
	w.logFloor = recs[drop-1].epoch
	fresh := make([]updateRecord, 0, limit+limit/4)
	w.log.recs = append(fresh, recs[drop:]...)
}
