package wire

import (
	"math/rand"

	"repro/internal/bpt"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
)

func randRequest(r *rand.Rand) *Request {
	req := &Request{
		Client: ClientID(r.Uint32()),
		Epoch:  r.Uint64() % 1000,
	}
	switch r.Intn(3) {
	case 0:
		req.Q = query.NewRange(geom.R(r.Float64(), r.Float64(), 1+r.Float64(), 1+r.Float64()))
	case 1:
		req.Q = query.NewKNN(geom.Pt(r.Float64(), r.Float64()), 1+r.Intn(9))
	default:
		req.Q = query.NewJoin(geom.R(0, 0, r.Float64(), r.Float64()), r.Float64()*0.01)
	}
	for i := 0; i < r.Intn(5); i++ {
		ref := query.NodeRef(rtree.NodeID(r.Uint32()%1000+1), geom.R(0, 0, r.Float64(), r.Float64()))
		if r.Intn(2) == 0 {
			ref = query.SuperRef(rtree.NodeID(r.Uint32()%1000+1), bpt.Code("0110"[:r.Intn(4)+1]), geom.R(0, 0, 1, 1))
		}
		req.H = append(req.H, query.QueuedElem{Key: r.Float64(), Elem: query.Single(ref), Deferred: r.Intn(2) == 0})
	}
	for i := 0; i < r.Intn(4); i++ {
		req.CachedIDs = append(req.CachedIDs, rtree.ObjectID(r.Uint32()))
	}
	if r.Intn(2) == 0 {
		req.HasFMR = true
		req.FMR = r.Float64()
	}
	if r.Intn(3) == 0 {
		req.Bound = r.Float64() // cluster sub-query distance bound
	}
	if r.Intn(3) == 0 {
		for i := 0; i < 1+r.Intn(4); i++ {
			u := UpdateOp{Obj: rtree.ObjectID(r.Uint32())}
			switch r.Intn(3) {
			case 0:
				u.Kind = UpdateInsert
				u.To = geom.R(0, 0, r.Float64(), r.Float64())
				u.Size = r.Intn(10000)
			case 1:
				u.Kind = UpdateDelete
				u.From = geom.R(0, 0, r.Float64(), r.Float64())
			default:
				u.Kind = UpdateMove
				u.From = geom.R(0, 0, r.Float64(), r.Float64())
				u.To = geom.R(0, 0, r.Float64(), r.Float64())
			}
			req.Updates = append(req.Updates, u)
		}
	}
	return req
}

func randResponse(r *rand.Rand) *Response {
	resp := &Response{
		K:      r.Intn(10),
		Epoch:  r.Uint64() % 1000,
		RootID: rtree.NodeID(r.Uint32() % 100),
	}
	for i := 0; i < r.Intn(6); i++ {
		resp.Objects = append(resp.Objects, ObjectRep{
			ID:      rtree.ObjectID(r.Uint32()),
			MBR:     geom.R(0, 0, r.Float64(), r.Float64()),
			Size:    r.Intn(10000),
			Payload: r.Intn(2) == 0,
		})
	}
	for i := 0; i < r.Intn(3); i++ {
		resp.Pairs = append(resp.Pairs, [2]rtree.ObjectID{rtree.ObjectID(r.Uint32()), rtree.ObjectID(r.Uint32())})
	}
	for i := 0; i < r.Intn(3); i++ {
		rep := NodeRep{ID: rtree.NodeID(r.Uint32() % 1000), Level: r.Intn(4)}
		for j := 0; j < 1+r.Intn(5); j++ {
			rep.Elems = append(rep.Elems, CutElem{
				Code:  bpt.Code("01011"[:r.Intn(5)+1]),
				MBR:   geom.R(0, 0, r.Float64(), r.Float64()),
				Super: r.Intn(2) == 0,
				Child: rtree.NodeID(r.Uint32() % 100),
			})
		}
		resp.Index = append(resp.Index, rep)
	}
	if r.Intn(4) == 0 {
		resp.FlushAll = true
	}
	for i := 0; i < r.Intn(3); i++ {
		resp.InvalidNodes = append(resp.InvalidNodes, rtree.NodeID(r.Uint32()))
		resp.InvalidObjs = append(resp.InvalidObjs, rtree.ObjectID(r.Uint32()))
	}
	for i := 0; i < r.Intn(4); i++ {
		resp.UpdateResults = append(resp.UpdateResults, r.Intn(2) == 0)
	}
	return resp
}
