package server

import (
	"math/bits"

	"repro/internal/bpt"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// Server-side batch execution: when the serving layer drains several
// pipelined requests from one connection in a single read pass
// (wire.ServeConfig.HandleBatch), ExecuteBatch runs the groupable ones —
// fresh partitioned range queries — through one shared traversal of the
// packed pages instead of one traversal each. The snapshot load, root
// descent, and per-position MBR loads are paid once per group; membership
// masks track which requests each queue element still concerns.
//
// Responses are byte-identical to solo execution. The grouped walk is the
// same FIFO expansion as query.Runner's range fast path, and each request's
// subsequence of the shared queue is exactly its solo queue: a child element
// concerns request i only if its parent did (child MBRs are contained in
// the parent's), and FIFO order preserves the relative order of any
// per-request subsequence. Engine counters are maintained per request with
// the same accounting as the solo path.

// groupLimit caps requests per shared traversal, matching the width of the
// membership mask.
const groupLimit = 64

// groupable reports whether a request can join a shared range traversal:
// a fresh (no handed-over state), unbounded, index-shipping range query in
// a partitioned form. Everything else takes the solo path.
func groupable(req *wire.Request, form IndexForm) bool {
	return !req.Catalog &&
		len(req.Updates) == 0 &&
		req.Q.Kind == query.Range &&
		len(req.H) == 0 &&
		len(req.SemWindows) == 0 &&
		!req.NoIndex &&
		form != FullForm &&
		req.Bound == 0
}

// ExecuteBatch processes a batch of requests against one snapshot,
// running groupable range requests through shared traversals of up to
// groupLimit requests each and everything else through the solo path.
// resps[i] answers reqs[i]; the ReleaseResponse contract is the same as
// Execute's.
func (s *Server) ExecuteBatch(reqs []*wire.Request) ([]*wire.Response, []ExecInfo) {
	resps := make([]*wire.Response, len(reqs))
	infos := make([]ExecInfo, len(reqs))
	if len(reqs) == 0 {
		return resps, infos
	}

	ds := make([]int, len(reqs))
	for i, req := range reqs {
		ds[i] = s.feedbackAndD(req)
	}

	group := make([]int, 0, len(reqs))
	for i, req := range reqs {
		if groupable(req, s.cfg.Form) {
			group = append(group, i)
		} else {
			resps[i], infos[i] = s.executeWithD(req, ds[i])
		}
	}
	if len(group) == 0 {
		return resps, infos
	}

	v := s.cur.Load()
	for len(group) > 0 {
		chunk := group
		if len(chunk) > groupLimit {
			chunk = chunk[:groupLimit]
		}
		group = group[len(chunk):]
		s.executeGroup(v, reqs, ds, chunk, resps, infos)
	}
	return resps, infos
}

// gElem is one element of the shared traversal queue: an engine reference
// plus the set of requests (bits indexing the chunk) it still concerns.
type gElem struct {
	ref  query.Ref
	mask uint64
}

// executeGroup runs one shared traversal for chunk (indices into reqs) and
// fills resps/infos at those indices. The per-request accounting below
// mirrors query.Runner's range FIFO path and provider.Expand step for step;
// keep them in sync.
func (s *Server) executeGroup(v *snapshot, reqs []*wire.Request, ds []int, chunk []int, resps []*wire.Response, infos []ExecInfo) {
	n := len(chunk)
	sts := make([]*execState, n)
	out := make([]*wire.Response, n)
	wins := make([]geom.Rect, n)
	w32 := make([]rtree.Window32, n)
	for j, i := range chunk {
		req := reqs[i]
		sts[j] = s.getExec(v, true, true)
		out[j] = s.acquireResponse()
		out[j].K = req.Q.K
		infos[i] = ExecInfo{D: ds[i]}
		wins[j] = req.Q.Window
		w32[j] = rtree.MakeWindow32(req.Q.Window)
		for _, id := range req.CachedIDs {
			sts[j].noPay[id] = true
		}
	}

	root := rootRef(v)
	queue := make([]gElem, 0, 8*n+64)
	var seedMask uint64
	for j, i := range chunk {
		if wins[j].Intersects(root.MBR) {
			seedMask |= 1 << uint(j)
			infos[i].Engine.Pushes++
		}
	}
	if seedMask != 0 {
		queue = append(queue, gElem{ref: root, mask: seedMask})
	}

	// pushChild evaluates one child position of page pg against every window
	// in mask — branchless float32 planes first, exact rect to confirm — and
	// enqueues the element for the accepting subset.
	pushChild := func(node rtree.NodeID, pg *rtree.Page, c int32, mask uint64) {
		rect := pg.Rect(c)
		var cm uint64
		for b := mask; b != 0; b &= b - 1 {
			j := bits.TrailingZeros64(b)
			eng := &infos[chunk[j]].Engine
			eng.Evals++
			if !pg.MayIntersect(c, w32[j]) || !wins[j].Intersects(rect) {
				continue
			}
			eng.Pushes++
			cm |= 1 << uint(j)
		}
		if cm == 0 {
			return
		}
		var ref query.Ref
		if pg.IsLeaf(c) {
			ref = pageRef(pg, c)
		} else {
			ref = query.SuperRefHinted(node, bpt.Code(pg.Code(c)), rect, uint32(c)+1)
		}
		queue = append(queue, gElem{ref: ref, mask: cm})
	}

	for head := 0; head < len(queue); head++ {
		e := queue[head]
		for b := e.mask; b != 0; b &= b - 1 {
			infos[chunk[bits.TrailingZeros64(b)]].Engine.Pops++
		}
		ref := e.ref
		if ref.IsObject() {
			for b := e.mask; b != 0; b &= b - 1 {
				j := bits.TrailingZeros64(b)
				st := sts[j]
				if !st.seen[ref.Obj] {
					st.seen[ref.Obj] = true
					out[j].Objects = append(out[j].Objects, s.objectRep(ref, st.noPay))
				}
			}
			continue
		}

		nd, ok := v.tree.Node(ref.Node)
		if !ok {
			// Dangling reference: the solo provider answers an empty
			// expansion without a visit.
			for b := e.mask; b != 0; b &= b - 1 {
				infos[chunk[bits.TrailingZeros64(b)]].Engine.Expands++
			}
			continue
		}
		for b := e.mask; b != 0; b &= b - 1 {
			sts[bits.TrailingZeros64(b)].prov.visit(nd.ID)
		}
		if len(nd.Entries) == 0 {
			for b := e.mask; b != 0; b &= b - 1 {
				infos[chunk[bits.TrailingZeros64(b)]].Engine.Expands++
			}
			continue
		}
		pg := v.pages.Page(nd)
		var pos int32
		if ref.Kind == query.RefSuper {
			// Grouped super refs always carry their page position.
			pos = int32(ref.PosHint() - 1)
		}
		for b := e.mask; b != 0; b &= b - 1 {
			j := bits.TrailingZeros64(b)
			sts[j].prov.markExpanded(nd.ID, pg, pos)
			infos[chunk[j]].Engine.Expands++
		}
		if r := pg.Right(pos); r == 0 {
			pushChild(nd.ID, pg, pos, e.mask)
		} else {
			pushChild(nd.ID, pg, pos+1, e.mask)
			pushChild(nd.ID, pg, r, e.mask)
		}
	}

	for j, i := range chunk {
		req := reqs[i]
		st := sts[j]
		resp := out[j]
		buildIndexInto(v, resp, st, s.cfg.Form, ds[i])
		resp.RootID, resp.RootMBR = root.Node, root.MBR
		attachInvalidations(v, st, req, resp)
		infos[i].VisitedNodes = st.prov.visitedCount
		resps[i] = resp
		s.putExec(st)
	}
}
