package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
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
//  1. Snapshot: with no lock held, the router reads the shard's full object
//     set. Updates keep flowing to the shard, whose writer group-commits
//     them as at any other time.
//  2. Plane: the split cut is the median of the moving shard's object
//     centers along the longer axis — the same balanced-count rule
//     MakePartition uses, applied to one leaf.
//  3. Transfer: the losing half bulk-loads into a new R*-tree, round-trips
//     through the packed image codec (the same bytes a WAL checkpoint or a
//     wire transfer would carry), and comes up as a new shard server with
//     its own WAL and the snapshot's payload sizes (InProcess.spawn).
//  4. Cutover: the write fence drains every in-flight request against the
//     old owner, so the source now holds exactly what it acked. The router
//     reads the moving half from it once more, sends the new shard the
//     difference from the snapshot as one batch, deletes the re-read set
//     from the source through its ordinary update path — which bumps its
//     epoch and writes the invalidation log entries that tell caching
//     clients their cuts of the moved region are stale — and installs the
//     new partition, endpoint, and metadata atomically. No client flush:
//     epoch vectors for the new slot zero-pad (epoch.go), and the changed
//     root set surfaces as a virtual-root invalidation on each client's
//     next response.
//
// A merge is the symmetric, simpler path: under one write fence the losing
// sibling's objects bulk-insert into the survivor, the KD parent cut
// disappears, and the slot dies. Merging must flush all clients — the dead
// slot's node ids can never be invalidated individually once its server is
// gone — so it is the split's cheap-to-rare counterpart.

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

// SplitShard splits shard s's region in two online: the half with the
// larger coordinates moves to a freshly spawned shard slot, in-flight
// requests drain against the old owner at the fence, the updates accepted
// during the transfer reach the new shard as the difference between the
// snapshot and a fenced re-read of the moving half, and no client is
// flushed — cached cuts of the moved region invalidate through the source
// shard's ordinary epoch protocol, and the topology change itself surfaces
// as a virtual-root invalidation. Split operations serialize with each
// other and with MergeShards.
func (r *Router) SplitShard(s int, p *InProcess) error {
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
	resp, err := r.allObjects(s)
	if err != nil {
		return fmt.Errorf("cluster: split: snapshot shard %d: %w", s, err)
	}
	objs := append([]wire.ObjectRep(nil), resp.Objects...)
	r.release(s, resp)
	if len(objs) < 2 {
		return fmt.Errorf("cluster: split: shard %d owns %d objects; nothing to split", s, len(objs))
	}
	axis, cut, ok := splitPlane(objs)
	if !ok {
		return fmt.Errorf("cluster: split: shard %d's object centers coincide", s)
	}
	newPart, err := r.part.SplitLeaf(s, axis, cut)
	if err != nil {
		return err
	}

	// The losing half: everything the new partition routes to slot t.
	moving := make([]wire.ObjectRep, 0, len(objs)/2)
	for _, o := range objs {
		if newPart.LocateRect(o.MBR) == t {
			moving = append(moving, o)
		}
	}
	if len(moving) == 0 || len(moving) == len(objs) {
		return fmt.Errorf("cluster: split: plane left shard %d with an empty side", s)
	}

	// Transfer: spawn the new shard from the packed move-set image.
	shard, err := p.spawn(t, moving)
	if err != nil {
		return fmt.Errorf("cluster: split: spawn slot %d: %w", t, err)
	}

	// Cutover: fence out every request, reconcile the new shard with the
	// source's exact state, move ownership.
	fence := time.Now()
	r.topo.Lock()
	abort := func(why error) error {
		r.topo.Unlock()
		p.Kill(t)
		return why
	}
	cur, err := r.reread(s, newPart, t)
	if err != nil {
		return abort(fmt.Errorf("cluster: split: re-read shard %d: %w", s, err))
	}
	if len(cur) == 0 {
		return abort(fmt.Errorf("cluster: split: moving half emptied during transfer"))
	}
	if diff := reconcile(moving, cur); len(diff) > 0 {
		dresp, err := shard.T.RoundTrip(&wire.Request{Updates: diff})
		if err != nil {
			return abort(fmt.Errorf("cluster: split: catch up slot %d: %w", t, err))
		}
		acked := len(dresp.UpdateResults) == len(diff)
		for _, ok := range dresp.UpdateResults {
			acked = acked && ok
		}
		if shard.Release != nil {
			shard.Release(dresp)
		}
		if !acked {
			return abort(fmt.Errorf("cluster: split: slot %d refused its catch-up batch", t))
		}
	}

	// Install the topology: the new slot, cataloged post-catch-up for its
	// root and epoch, then the post-split geometry.
	if err := r.addSlot(shard); err != nil {
		return abort(fmt.Errorf("cluster: split: catalog slot %d: %w", t, err))
	}
	r.part = newPart

	// Delete the moved objects from the source through its ordinary update
	// path: its epoch advances and its invalidation log picks up the moved
	// region, so caching clients invalidate their cuts of it on their next
	// response — the epoch-fenced crossing window.
	del := make([]wire.UpdateOp, len(cur))
	for i, o := range cur {
		del[i] = wire.UpdateOp{Kind: wire.UpdateDelete, Obj: o.ID, From: o.MBR}
	}
	dresp, err := r.roundTripShard(s, &wire.Request{Updates: del})
	if err == nil {
		r.observe(s, dresp)
		r.release(s, dresp)
		moved := int64(len(cur))
		r.stats.Shard(s).Objects.Add(-moved)
		r.stats.Shard(t).Objects.Store(moved)
	}
	r.stats.Splits.Add(1)
	r.stats.HandoverNanos.Add(time.Since(fence).Nanoseconds())
	r.topo.Unlock()
	if err != nil {
		// The new shard already owns the region; the stale copies on the
		// source will be dropped by a retry or shadowed by dedup until
		// then. Surface the error but keep the installed topology.
		return fmt.Errorf("cluster: split: ownership delete on shard %d: %w", s, err)
	}
	return nil
}

// reread reads, under the split's write fence, the objects shard s holds
// that part routes to slot t: the moving half exactly as the source acked
// it.
func (r *Router) reread(s int, part *Partition, t int) ([]wire.ObjectRep, error) {
	resp, err := r.roundTripShard(s, &wire.Request{
		Q:       query.NewRange(part.leafCell(t)),
		NoIndex: true,
	})
	if err != nil {
		return nil, err
	}
	var cur []wire.ObjectRep
	for _, o := range resp.Objects {
		if part.LocateRect(o.MBR) == t {
			cur = append(cur, o)
		}
	}
	r.release(s, resp)
	return cur, nil
}

// reconcile returns the update batch that turns a shard holding snap into
// one holding cur: an insert for each new object, carrying its size, a
// delete for each object gone, and a move for each object whose rectangle
// changed — a delete and an insert when its size changed.
func reconcile(snap, cur []wire.ObjectRep) []wire.UpdateOp {
	was := make(map[rtree.ObjectID]wire.ObjectRep, len(snap))
	for _, o := range snap {
		was[o.ID] = o
	}
	var ops []wire.UpdateOp
	for _, o := range cur {
		old, ok := was[o.ID]
		delete(was, o.ID)
		ins := wire.UpdateOp{Kind: wire.UpdateInsert, Obj: o.ID, To: o.MBR, Size: o.Size}
		switch {
		case !ok:
			ops = append(ops, ins)
		case old.Size != o.Size:
			ops = append(ops, wire.UpdateOp{Kind: wire.UpdateDelete, Obj: o.ID, From: old.MBR}, ins)
		case old.MBR != o.MBR:
			ops = append(ops, wire.UpdateOp{Kind: wire.UpdateMove, Obj: o.ID, From: old.MBR, To: o.MBR})
		}
	}
	for _, o := range snap {
		if _, gone := was[o.ID]; gone {
			ops = append(ops, wire.UpdateOp{Kind: wire.UpdateDelete, Obj: o.ID, From: o.MBR})
		}
	}
	return ops
}

// MergeShards folds shard t back into its KD sibling s: one write fence
// covers reading t's objects, bulk-inserting them into s, and collapsing
// the parent cut. The dead slot's node ids can never be invalidated once
// its server retires, so a merge flushes every tracked client — the exact
// cost split avoids. The slot is never reused.
func (r *Router) MergeShards(s, t int, p *InProcess) error {
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

	p.Kill(t) // the retired slot's server and WAL go with it
	return nil
}
