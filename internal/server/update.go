package server

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// Update support — the paper's first future-work item ("investigate the
// impact of server updates on proactive caching and devise efficient cache
// invalidation schemes"). The server keeps an epoch-stamped log of the index
// nodes and objects each update touched; clients attach their last-seen
// epoch to requests, and responses piggyback the ids invalidated since then
// (a pull-based invalidation report in the spirit of Xu et al.'s IR
// schemes, adapted to the unicast setting).
//
// All mutation flows through the single-writer queue in snapshot.go: the
// compatibility mutators below enqueue one operation and block until its
// snapshot is published, so their callers observe their own writes exactly
// as under the old write lock — without ever stalling in-flight queries.

// updateRecord is one epoch's worth of invalidations.
type updateRecord struct {
	epoch uint64
	nodes []rtree.NodeID
	objs  []rtree.ObjectID
}

// InsertObject adds an object to the index and blocks until the snapshot
// containing it is published; its epoch logs every index node the insertion
// touched. Queries running concurrently keep the snapshot they loaded and are
// never stalled.
func (s *Server) InsertObject(id rtree.ObjectID, mbr geom.Rect, size int) {
	s.applyOne(wire.UpdateOp{Kind: wire.UpdateInsert, Obj: id, To: mbr, Size: size})
}

// DeleteObject removes an object. It reports whether the object existed.
func (s *Server) DeleteObject(id rtree.ObjectID, mbr geom.Rect) bool {
	return s.applyOne(wire.UpdateOp{Kind: wire.UpdateDelete, Obj: id, From: mbr})
}

// MoveObject relocates an object (delete + insert under one epoch), the
// moving-objects workload of the update experiments.
func (s *Server) MoveObject(id rtree.ObjectID, from, to geom.Rect) bool {
	return s.applyOne(wire.UpdateOp{Kind: wire.UpdateMove, Obj: id, From: from, To: to})
}

// Epoch returns the epoch of the currently published snapshot.
func (s *Server) Epoch() uint64 {
	return s.cur.Load().epoch
}

// invalidationsSince collects the node/object ids changed after the client's
// epoch, against the currently published snapshot. The boolean reports
// whether the log horizon was exceeded, in which case the client must drop
// its whole cache (FlushAll). This allocating form exists for tests and
// one-off inspection; the serving path uses appendInvalidations with pooled
// scratch.
func (s *Server) invalidationsSince(epoch uint64) (nodes []rtree.NodeID, objs []rtree.ObjectID, flush bool) {
	v := s.cur.Load()
	var resp wire.Response
	appendInvalidations(v, &execState{}, epoch, &resp)
	return resp.InvalidNodes, resp.InvalidObjs, resp.FlushAll
}

// reportRecordLimit caps how many log records one invalidation report may
// scan. A client that lags further gets FlushAll instead: past this point
// the report itself (thousands of ids, scanned and deduplicated on every
// request the client makes) costs more than refilling the cache, and an
// epoch-0 client hammering queries must not turn the log walk into the
// serving bottleneck.
const reportRecordLimit = 1024

// appendInvalidations writes the invalidation report for a client at the
// given epoch into resp (InvalidNodes, InvalidObjs, FlushAll), deduplicating
// through the request's pooled scratch sets and appending into the response's
// recycled slices — the warm path allocates nothing. The log is sorted by
// epoch, so the client's window is found by binary search rather than a full
// scan.
func appendInvalidations(v *snapshot, st *execState, epoch uint64, resp *wire.Response) {
	if epoch >= v.epoch {
		return
	}
	if epoch < v.logFloor {
		resp.FlushAll = true
		return
	}
	recs := v.updates
	i := sort.Search(len(recs), func(i int) bool { return recs[i].epoch > epoch })
	recs = recs[i:]
	if len(recs) > reportRecordLimit {
		resp.FlushAll = true
		return
	}
	for _, rec := range recs {
		for _, id := range rec.nodes {
			if st.seenN.Add(uint64(id)) {
				resp.InvalidNodes = append(resp.InvalidNodes, id)
			}
		}
		for _, id := range rec.objs {
			if st.seenO.Add(uint64(id)) {
				resp.InvalidObjs = append(resp.InvalidObjs, id)
			}
		}
	}
}

// attachInvalidations stamps the response with the snapshot's epoch and the
// invalidation report for the requesting client.
func attachInvalidations(v *snapshot, st *execState, req *wire.Request, resp *wire.Response) {
	resp.Epoch = v.epoch
	if v.epoch == 0 {
		return
	}
	appendInvalidations(v, st, req.Epoch, resp)
}

// ExecuteUpdates serves a batched update request (Request.Updates non-empty):
// the operations go through the writer queue, and the response carries the
// per-operation results, the post-batch epoch and root, and the invalidation
// report the updating client is owed for its own epoch. The returned
// response participates in the server's response pool like any other.
func (s *Server) ExecuteUpdates(req *wire.Request) *wire.Response {
	resp := s.resps.Get()
	resp.UpdateResults = s.ApplyUpdates(req.Updates, resp.UpdateResults)

	v := s.cur.Load()
	st := s.getExec(v, false, false)
	defer s.putExec(st)
	root := rootRef(v)
	resp.RootID, resp.RootMBR = root.Node, root.MBR
	attachInvalidations(v, st, req, resp)
	return resp
}
