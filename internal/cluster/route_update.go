package cluster

import (
	"repro/internal/rtree"
	"repro/internal/wire"
)

// Update routing. Every operation goes to the shard owning the rectangle
// that identifies it: inserts to the owner of the new rectangle, deletes
// and in-shard moves to the owner of the current one. A move whose target
// center falls in another shard's region re-partitions the object — a
// delete on the old owner followed, only if the delete matched, by an
// insert on the new owner (carrying the payload size the router learned
// from the object's original insert, or from Config.Sizer for build-time
// objects). The ownership invariant — an object lives on the shard owning
// its current center — therefore survives arbitrary movement.
//
// Operations bound for one shard ship as one sub-batch, preserving their
// relative order, and the per-operation acks scatter back into the
// request's original order. Single-node order semantics are preserved even
// across re-partitioning: a batch is cut into sequential chunks at every
// operation that touches an object whose cross-shard re-insert is still
// pending, so "move across the boundary, then move again" applies exactly
// as it would on one server. A feed that touches each object once per
// batch (every real feed) routes in a single chunk.

// opRoute remembers where one client operation went.
type opRoute struct {
	shard int // first-phase shard
	idx   int // index within that shard's sub-batch
	cross bool
	to    int // cross move: inserting shard
}

func (r *Router) routeUpdates(req *wire.Request) (*wire.Response, error) {
	st := r.getState()
	defer r.putState(st)
	r.snapshotMeta(st)
	r.loadEpochBase(st, req)

	resp := r.resps.Get()
	results := make([]bool, len(req.Updates))

	pending := make(map[rtree.ObjectID]bool)
	start := 0
	for start < len(req.Updates) {
		end := start
		for end < len(req.Updates) {
			op := req.Updates[end]
			if pending[op.Obj] {
				break // order hazard: finish the pending re-insert first
			}
			if _, cross := r.crossTarget(op); cross {
				pending[op.Obj] = true
			}
			end++
		}
		if err := r.applyChunk(st, req, resp, req.Updates[start:end], results[start:end]); err != nil {
			r.ReleaseResponse(resp)
			return nil, err
		}
		clear(pending)
		start = end
	}

	// Update acks carry the client's full invalidation window too (the
	// single-node ExecuteUpdates contract): catalog any lagging shard the
	// batch did not touch.
	waveStart := len(st.wave)
	st.appendLagCatalogs(req, func(s int) bool { return st.queried[s] })
	if err := r.gather(st, st.wave[waveStart:], resp, nil); err != nil {
		r.ReleaseResponse(resp)
		return nil, err
	}

	resp.UpdateResults = append(resp.UpdateResults[:0], results...)
	r.finishConsistency(st, req, resp)
	return resp, nil
}

// applyChunk routes one dependency-free run of operations: phase one ships
// per-shard sub-batches (cross-shard moves travel as deletes), phase two
// re-inserts the successfully deleted movers on their new owners.
func (r *Router) applyChunk(st *routeState, req *wire.Request, resp *wire.Response, ops []wire.UpdateOp, results []bool) error {
	routes := make([]opRoute, len(ops))
	subOps := make([][]wire.UpdateOp, st.nsh)
	for i, op := range ops {
		rt := opRoute{to: -1}
		switch op.Kind {
		case wire.UpdateInsert:
			rt.shard = r.part.LocateRect(op.To)
			if !op.To.Usable() {
				break // the shard refuses it: learn no size for the id
			}
			sz := op.Size
			if sz < 0 {
				sz = 0
			}
			r.wireSizes.Store(op.Obj, sz)
		case wire.UpdateMove:
			rt.shard = r.part.LocateRect(op.From)
			if to, cross := r.crossTarget(op); cross {
				rt.cross, rt.to = true, to
				op = wire.UpdateOp{Kind: wire.UpdateDelete, Obj: op.Obj, From: op.From}
			}
		default: // UpdateDelete and unknown kinds (shards reject the latter)
			rt.shard = r.part.LocateRect(op.From)
		}
		rt.idx = len(subOps[rt.shard])
		subOps[rt.shard] = append(subOps[rt.shard], op)
		routes[i] = rt
	}

	phase, err := r.updatePhase(st, req, resp, subOps)
	if err != nil {
		return err
	}

	// Phase two: cross-shard re-inserts for the moves whose delete matched.
	var crossOps [][]wire.UpdateOp
	for i, rt := range routes {
		if !rt.cross || !phase[rt.shard][rt.idx] {
			continue
		}
		if crossOps == nil {
			crossOps = make([][]wire.UpdateOp, st.nsh)
		}
		op := ops[i]
		crossOps[rt.to] = append(crossOps[rt.to], wire.UpdateOp{
			Kind: wire.UpdateInsert,
			Obj:  op.Obj,
			To:   op.To,
			Size: r.sizeOf(op.Obj),
		})
	}
	if crossOps != nil {
		phase2, err := r.updatePhase(st, req, resp, crossOps)
		if err != nil {
			return err
		}
		for s2 := range phase2 {
			for _, acked := range phase2[s2] {
				if acked {
					r.stats.Shard(s2).Objects.Add(1)
				}
			}
		}
	}

	for i, rt := range routes {
		results[i] = phase[rt.shard][rt.idx]
		if !results[i] {
			continue
		}
		// Maintain the per-shard object-count gauges: inserts and
		// deletes move the owner's count, and a cross-shard move
		// decrements here with the re-insert counted in phase two above.
		switch ops[i].Kind {
		case wire.UpdateInsert:
			r.stats.Shard(rt.shard).Objects.Add(1)
		case wire.UpdateDelete:
			r.stats.Shard(rt.shard).Objects.Add(-1)
			// An acked delete retires the object: drop its learned payload
			// size so insert/delete churn cannot grow the overlay forever.
			r.wireSizes.Delete(ops[i].Obj)
		case wire.UpdateMove:
			if rt.cross {
				r.stats.Shard(rt.shard).Objects.Add(-1)
			}
		}
	}
	return nil
}

// crossTarget reports whether op is a move that re-partitions its object,
// and onto which shard. A move whose target no shard may hold (not finite,
// or inverted) stays with the current owner, which refuses it whole.
func (r *Router) crossTarget(op wire.UpdateOp) (int, bool) {
	if op.Kind != wire.UpdateMove || !op.To.Usable() {
		return -1, false
	}
	to := r.part.LocateRect(op.To)
	return to, to != r.part.LocateRect(op.From)
}

// updatePhase ships one sub-batch per shard with operations queued for it,
// absorbs the acks (epochs, roots, invalidation fan-in), and returns the
// per-shard result vectors.
func (r *Router) updatePhase(st *routeState, req *wire.Request, resp *wire.Response, subOps [][]wire.UpdateOp) ([][]bool, error) {
	waveStart := len(st.wave)
	for s, ops := range subOps {
		if len(ops) == 0 {
			continue
		}
		st.wave = append(st.wave, waveItem{shard: s, task: -1})
		it := &st.wave[len(st.wave)-1]
		it.req = wire.Request{
			Client:  req.Client,
			Epoch:   st.baseVec[s],
			Updates: ops,
		}
	}
	results := make([][]bool, st.nsh)
	err := r.gather(st, st.wave[waveStart:], resp, func(it *waveItem) error {
		results[it.shard] = append([]bool(nil), it.resp.UpdateResults...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
