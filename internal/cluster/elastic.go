package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// Elastic topology: online shard split and merge (docs/ELASTIC.md).
//
// A split moves the hot half of one shard's region onto a freshly spawned
// shard without ever stopping the cluster or flushing its clients:
//
//  1. Arm: under a brief write fence the router installs a handover window
//     for the source shard. From then on every acked update batch bound for
//     it is recorded, and update issuance to that one shard serializes on
//     the window's lock so the record order is exactly the shard's apply
//     order. Queries are untouched.
//  2. Snapshot: holding the window lock (so no batch is mid-flight), the
//     router reads the shard's full object set. Everything recorded after
//     this point is the "WAL tail" the snapshot does not contain.
//  3. Plane: the split cut is the median of the moving shard's object
//     centers along the longer axis — the same balanced-count rule
//     MakePartition uses, applied to one leaf.
//  4. Transfer: the losing half bulk-loads into a new R*-tree, round-trips
//     through the packed image codec (the same bytes a WAL checkpoint or a
//     wire transfer would carry), and comes up as a new shard server with
//     its own WAL and optional standby (Spawner).
//  5. Cutover: the write fence drains every in-flight request against the
//     old owner, the recorded tail replays onto the new shard (re-routed
//     against the post-split partition), the moved objects are deleted from
//     the source through its ordinary update path — which bumps its epoch
//     and writes the invalidation log entries that tell caching clients
//     their cuts of the moved region are stale — and the new partition,
//     endpoint, and metadata install atomically. No client flush: epoch
//     vectors for the new slot zero-pad (epoch.go), and the changed root
//     set surfaces as a virtual-root invalidation on each client's next
//     response.
//
// A merge is the symmetric, simpler path: under one write fence the losing
// sibling's objects bulk-insert into the survivor, the KD parent cut
// disappears, and the slot dies. Merging must flush all clients — the dead
// slot's node ids can never be invalidated individually once its server is
// gone — so it is the split's cheap-to-rare counterpart.
type handoverState struct {
	from int
	mu   sync.Mutex
	// entries are the acked update batches applied to the source shard
	// since the window armed, in apply order (issuance serializes on mu).
	entries []handoverEntry
	// boundary is how many leading entries the object snapshot already
	// contains; replay starts after it.
	boundary int
}

type handoverEntry struct {
	ops []wire.UpdateOp // acked operations only, as the source applied them
}

// record appends a batch's acked operations. Caller holds ho.mu (issueWave
// serializes the source shard's updates on it during the window).
func (ho *handoverState) record(ops []wire.UpdateOp, acked []bool) {
	var kept []wire.UpdateOp
	for i, op := range ops {
		if i < len(acked) && acked[i] {
			kept = append(kept, op)
		}
	}
	if len(kept) > 0 {
		ho.entries = append(ho.entries, handoverEntry{ops: kept})
	}
}

// Spawner creates and retires shard servers for elastic topology changes.
// InProcess implements it; a multi-process deployment would provision and
// decommission shard processes here.
type Spawner interface {
	// Spawn stands up a new shard server for slot t seeded with items
	// (payload sizes via size), returning its router-facing Shard. The
	// shard is not yet reachable by clients; the router installs it at
	// cutover.
	Spawn(t int, items []rtree.Item, size func(rtree.ObjectID) int) (Shard, error)
	// Retire tears down slot t's server after the topology no longer
	// routes to it.
	Retire(t int)
}

// errShardRetired answers any straggler round trip to a merged-away slot.
var errShardRetired = errors.New("cluster: shard slot retired by merge")

type retiredTransport struct{}

func (retiredTransport) RoundTrip(*wire.Request) (*wire.Response, error) {
	return nil, errShardRetired
}

// everything is the range window matching every object.
var everything = geom.Rect{
	MinX: math.Inf(-1), MinY: math.Inf(-1),
	MaxX: math.Inf(1), MaxY: math.Inf(1),
}

// allObjects reads a shard's complete object set through one sub-query.
func (r *Router) allObjects(s int) (*wire.Response, error) {
	return r.roundTripShard(s, &wire.Request{
		Q:       query.NewRange(everything),
		NoIndex: true,
	})
}

// splitPlane picks the axis and cut dividing the centers into two non-empty
// halves at the median, preferring the axis with the larger center spread.
// ok is false when every center coincides (nothing to split).
func splitPlane(objs []wire.ObjectRep) (axis int, cut float64, ok bool) {
	xs := make([]float64, len(objs))
	ys := make([]float64, len(objs))
	for i, o := range objs {
		c := o.MBR.Center()
		xs[i], ys[i] = c.X, c.Y
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	spreadX := xs[len(xs)-1] - xs[0]
	spreadY := ys[len(ys)-1] - ys[0]
	order := [2]int{0, 1}
	if spreadY > spreadX {
		order = [2]int{1, 0}
	}
	for _, ax := range order {
		coords := xs
		if ax == 1 {
			coords = ys
		}
		// Median cut, nudged up past duplicates so the < cut side keeps at
		// least one center (points at the cut go right).
		i := len(coords) / 2
		for i < len(coords) && coords[i] <= coords[0] {
			i++
		}
		if i < len(coords) {
			return ax, coords[i], true
		}
	}
	return 0, 0, false
}

// translateOps re-routes one recorded batch against the post-split
// partition: the subset of effects landing in the new shard's region
// becomes that shard's replay batch. owned tracks the object set the new
// shard will end up holding (and each object's current rectangle), for the
// cutover's ownership delete against the source.
func translateOps(part *Partition, t int, ops []wire.UpdateOp, sizeOf func(rtree.ObjectID) int, owned map[rtree.ObjectID]geom.Rect) []wire.UpdateOp {
	var out []wire.UpdateOp
	for _, op := range ops {
		switch op.Kind {
		case wire.UpdateInsert:
			if part.LocateRect(op.To) == t {
				out = append(out, op)
				owned[op.Obj] = op.To
			}
		case wire.UpdateDelete:
			if part.LocateRect(op.From) == t {
				out = append(out, op)
				delete(owned, op.Obj)
			}
		case wire.UpdateMove:
			fromT := part.LocateRect(op.From) == t
			toT := part.LocateRect(op.To) == t
			switch {
			case fromT && toT:
				out = append(out, op)
				owned[op.Obj] = op.To
			case toT:
				out = append(out, wire.UpdateOp{
					Kind: wire.UpdateInsert, Obj: op.Obj, To: op.To,
					Size: sizeOf(op.Obj),
				})
				owned[op.Obj] = op.To
			case fromT:
				out = append(out, wire.UpdateOp{
					Kind: wire.UpdateDelete, Obj: op.Obj, From: op.From,
				})
				delete(owned, op.Obj)
			}
		}
	}
	return out
}

// clearHandover disarms the split window (abort path).
func (r *Router) clearHandover() {
	r.topo.Lock()
	r.ho = nil
	r.topo.Unlock()
}

// SplitShard splits shard s's region in two online: the half with the
// larger coordinates moves to a freshly spawned shard slot, in-flight
// requests drain against the old owner at the fence, updates accepted
// during the transfer replay onto the new shard before it takes over, and
// no client is flushed — cached cuts of the moved region invalidate through
// the source shard's ordinary epoch protocol, and the topology change
// itself surfaces as a virtual-root invalidation. Split operations
// serialize with each other and with MergeShards.
func (r *Router) SplitShard(s int, sp Spawner) error {
	r.topoOpMu.Lock()
	defer r.topoOpMu.Unlock()

	// r.part is stable here: only topology operations replace it, and they
	// all hold topoOpMu.
	if !r.part.Live(s) {
		return fmt.Errorf("cluster: split: shard %d is not live", s)
	}
	t := len(r.slots) // always a fresh slot: node ids are never reused
	if t >= MaxShards {
		return fmt.Errorf("cluster: split: slot count %d exhausted the %d-slot namespace", t, MaxShards)
	}
	failoversBefore := r.stats.Shard(s).Failovers.Load()

	// Arm the handover window.
	ho := &handoverState{from: s}
	r.topo.Lock()
	r.ho = ho
	r.topo.Unlock()

	// Snapshot under the window lock: no update batch is mid-flight on s,
	// so entries recorded before the boundary are fully inside the
	// snapshot and entries after it are fully outside.
	ho.mu.Lock()
	resp, err := r.allObjects(s)
	if err != nil {
		ho.mu.Unlock()
		r.clearHandover()
		return fmt.Errorf("cluster: split: snapshot shard %d: %w", s, err)
	}
	objs := append([]wire.ObjectRep(nil), resp.Objects...)
	r.release(s, resp)
	ho.boundary = len(ho.entries)
	ho.mu.Unlock()

	if len(objs) < 2 {
		r.clearHandover()
		return fmt.Errorf("cluster: split: shard %d owns %d objects; nothing to split", s, len(objs))
	}
	axis, cut, ok := splitPlane(objs)
	if !ok {
		r.clearHandover()
		return fmt.Errorf("cluster: split: shard %d's object centers coincide", s)
	}
	newPart, err := r.part.SplitLeaf(s, t, axis, cut)
	if err != nil {
		r.clearHandover()
		return err
	}

	// The losing half: everything the new partition routes to slot t.
	owned := make(map[rtree.ObjectID]geom.Rect)
	items := make([]rtree.Item, 0, len(objs)/2)
	for _, o := range objs {
		if newPart.LocateRect(o.MBR) == t {
			owned[o.ID] = o.MBR
			items = append(items, rtree.Item{Obj: o.ID, MBR: o.MBR})
		}
	}
	if len(owned) == 0 || len(owned) == len(objs) {
		r.clearHandover()
		return fmt.Errorf("cluster: split: plane left shard %d with an empty side", s)
	}

	// Transfer: spawn the new shard from the packed move-set image.
	shard, err := sp.Spawn(t, items, r.sizeOf)
	if err != nil {
		r.clearHandover()
		return fmt.Errorf("cluster: split: spawn slot %d: %w", t, err)
	}

	// replayWave pushes recorded tail entries onto the new shard in record
	// order (== the source's apply order).
	replayWave := func(entries []handoverEntry) error {
		for _, e := range entries {
			tOps := translateOps(newPart, t, e.ops, r.sizeOf, owned)
			if len(tOps) == 0 {
				continue
			}
			tresp, err := shard.T.RoundTrip(&wire.Request{Updates: tOps})
			if err != nil {
				return err
			}
			if shard.Release != nil {
				shard.Release(tresp)
			}
		}
		return nil
	}

	// Catch-up: drain the recorded tail in waves while requests still flow.
	// The new shard is not yet routable, so replaying here is invisible to
	// clients — each wave shrinks the fenced, client-blocking replay below
	// to just the updates that arrived during the previous wave. Entries is
	// append-only under ho.mu, so a snapshot of its prefix stays valid after
	// the unlock.
	replayed := ho.boundary
	for round := 0; round < 8; round++ {
		ho.mu.Lock()
		pend := ho.entries[replayed:]
		ho.mu.Unlock()
		if len(pend) == 0 {
			break
		}
		if err := replayWave(pend); err != nil {
			r.clearHandover()
			sp.Retire(t)
			return fmt.Errorf("cluster: split: replay tail onto slot %d: %w", t, err)
		}
		replayed += len(pend)
	}

	// Cutover: fence out every request, replay the last sliver of the tail,
	// move ownership.
	fence := time.Now()
	r.topo.Lock()
	abort := func(why error) error {
		r.ho = nil
		r.topo.Unlock()
		sp.Retire(t)
		return why
	}
	if r.stats.Shard(s).Failovers.Load() != failoversBefore {
		// A replica promotion mid-transfer may have lost acked batches the
		// handover window recorded; the replay would diverge. Start over.
		return abort(fmt.Errorf("cluster: split: shard %d failed over during transfer; aborted", s))
	}
	if err := replayWave(ho.entries[replayed:]); err != nil {
		return abort(fmt.Errorf("cluster: split: replay tail onto slot %d: %w", t, err))
	}
	if len(owned) == 0 {
		// The tail deleted the whole moving half; nothing to hand over.
		return abort(fmt.Errorf("cluster: split: moving half emptied during transfer"))
	}

	// Install the topology: the new slot, cataloged post-replay for its
	// root and epoch, then the post-split geometry.
	if err := r.addSlot(shard); err != nil {
		return abort(fmt.Errorf("cluster: split: catalog slot %d: %w", t, err))
	}
	r.part = newPart

	// Delete the moved objects from the source through its ordinary update
	// path: its epoch advances and its invalidation log picks up the moved
	// region, so caching clients invalidate their cuts of it on their next
	// response — the epoch-fenced crossing window.
	del := make([]wire.UpdateOp, 0, len(owned))
	for id, mbr := range owned {
		del = append(del, wire.UpdateOp{Kind: wire.UpdateDelete, Obj: id, From: mbr})
	}
	sort.Slice(del, func(i, j int) bool { return del[i].Obj < del[j].Obj })
	dresp, err := r.roundTripShard(s, &wire.Request{Updates: del})
	if err != nil {
		// The new shard already owns the region; the stale copies on the
		// source will be dropped by a retry or shadowed by dedup until
		// then. Surface the error but keep the installed topology.
		r.ho = nil
		r.stats.Splits.Add(1)
		r.stats.HandoverNanos.Add(time.Since(fence).Nanoseconds())
		r.topo.Unlock()
		return fmt.Errorf("cluster: split: ownership delete on shard %d: %w", s, err)
	}
	r.observe(s, dresp)
	r.release(s, dresp)

	moved := int64(len(owned))
	r.stats.Shard(s).Objects.Add(-moved)
	tc := r.stats.Shard(t)
	tc.Objects.Store(moved)
	tc.Dead.Store(false)
	r.stats.Splits.Add(1)
	r.stats.HandoverNanos.Add(time.Since(fence).Nanoseconds())
	r.ho = nil
	r.topo.Unlock()
	return nil
}

// MergeShards folds shard t back into its KD sibling s: one write fence
// covers reading t's objects, bulk-inserting them into s, and collapsing
// the parent cut. The dead slot's node ids can never be invalidated once
// its server retires, so a merge flushes every tracked client — the exact
// cost split avoids, which is why the rebalancer's merge thresholds carry
// hysteresis. The slot is never reused.
func (r *Router) MergeShards(s, t int, sp Spawner) error {
	r.topoOpMu.Lock()
	defer r.topoOpMu.Unlock()

	if sib, ok := r.part.SiblingOf(t); !ok || sib != s {
		return fmt.Errorf("cluster: merge: shards %d and %d are not sibling leaves", s, t)
	}
	newPart, err := r.part.MergeLeaves(s, t)
	if err != nil {
		return err
	}

	fence := time.Now()
	r.topo.Lock()
	resp, err := r.allObjects(t)
	if err != nil {
		r.topo.Unlock()
		return fmt.Errorf("cluster: merge: snapshot shard %d: %w", t, err)
	}
	ins := make([]wire.UpdateOp, 0, len(resp.Objects))
	for _, o := range resp.Objects {
		sz := o.Size
		if sz <= 0 {
			sz = r.sizeOf(o.ID)
		}
		ins = append(ins, wire.UpdateOp{Kind: wire.UpdateInsert, Obj: o.ID, To: o.MBR, Size: sz})
	}
	r.release(t, resp)
	sort.Slice(ins, func(i, j int) bool { return ins[i].Obj < ins[j].Obj })
	if len(ins) > 0 {
		iresp, err := r.roundTripShard(s, &wire.Request{Updates: ins})
		if err != nil {
			r.topo.Unlock()
			return fmt.Errorf("cluster: merge: transfer into shard %d: %w", s, err)
		}
		r.observe(s, iresp)
		r.release(s, iresp)
	}

	r.retireSlot(t)
	r.part = newPart
	// Clients hold virtual node ids of a server that is about to disappear;
	// nothing can ever invalidate those ids individually, so everyone
	// rebuilds from scratch.
	r.epochs.flushAll()

	r.stats.Shard(s).Objects.Add(int64(len(ins)))
	tc := r.stats.Shard(t)
	tc.Objects.Store(0)
	tc.Dead.Store(true)
	r.stats.Merges.Add(1)
	r.stats.HandoverNanos.Add(time.Since(fence).Nanoseconds())
	r.topo.Unlock()

	sp.Retire(t)
	return nil
}
