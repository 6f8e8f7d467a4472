// Package wire defines the client/server protocol of the proactive caching
// architecture (Figure 3 of the paper) and the byte-accounting model used by
// the simulation: every uplink and downlink metric in the experiments is the
// size of these messages under SizeModel.
//
// The remainder query Qr = {Q, H} ships the query descriptor plus the
// priority-queue snapshot; the response ships the remainder result objects
// Rr followed by the supporting index Ir (node representations as partition
// -tree cuts). Results stream before the index so index shipping never
// delays result delivery, matching the cost model of Section 4.1.
package wire

import (
	"sync"

	"repro/internal/bpt"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
)

// ClientID identifies a mobile client to the server (adaptive state is kept
// per client).
type ClientID uint32

// Transport delivers a request to the server and returns its response. In
// the simulation this is a direct call into the server; cmd/prodb provides a
// TCP implementation.
type Transport interface {
	RoundTrip(*Request) (*Response, error)
}

// TransportFunc adapts a function to the Transport interface.
type TransportFunc func(*Request) (*Response, error)

// RoundTrip implements Transport.
func (f TransportFunc) RoundTrip(r *Request) (*Response, error) { return f(r) }

// Request is the uplink message.
type Request struct {
	Client ClientID
	Q      query.Query

	// H is the handed-over execution state (empty for a fresh query, e.g.
	// from baselines or a cold client; then the server seeds from the root).
	H []query.QueuedElem

	// CachedIDs lists the client's cached object ids (page-caching baseline
	// only; proactive caching never ships it).
	CachedIDs []rtree.ObjectID

	// SemWindows carries the trimmed remainder regions of the semantic
	// caching baseline: when non-empty (with Q.Kind == Range), the server
	// evaluates the union of these windows instead of Q.Window.
	SemWindows []geom.Rect

	// NoIndex asks the server not to ship a supporting index (page and
	// semantic caching baselines).
	NoIndex bool

	// Catalog asks only for the index root descriptor (client bootstrap);
	// Q and H are ignored.
	Catalog bool

	// Epoch is the client's last-seen update epoch; the response carries
	// invalidations for everything that changed since.
	Epoch uint64

	// FMR carries the client's recent false-miss rate when HasFMR is set
	// (the periodic feedback of the adaptive scheme, Section 4.3).
	FMR    float64
	HasFMR bool

	// Updates, when non-empty, turns the request into a batched index-update
	// message: the server applies the operations through its single-writer
	// update queue and answers with per-operation results instead of query
	// results (Q, H, and the caching fields are ignored). Shipping many
	// operations per frame is how a moving-object feed amortizes framing and
	// queueing costs — the writer coalesces whole batches into one published
	// snapshot.
	Updates []UpdateOp

	// Replica marks a replication-stream message: a primary shard forwarding
	// its acked update batches (or catalog probes) to its warm standby
	// (docs/DURABILITY.md). The flag is carried as a bare bit on the wire
	// and ordinary clients never set it.
	Replica bool

	// Bound, when positive, is shard-routing metadata from a cluster router
	// (internal/cluster): a priority-key upper bound on the query. A kNN
	// sub-query carries the router's current global k-th-best distance, so a
	// shard whose nearest unexplored entry already exceeds the bound stops
	// descending instead of solving its full local top-k (docs/CLUSTER.md).
	// Zero means unbounded; single-node clients never set it.
	Bound float64
}

// UpdateKind selects an index mutation.
type UpdateKind uint8

const (
	// UpdateInsert adds an object (To rectangle, Size payload bytes).
	UpdateInsert UpdateKind = iota + 1
	// UpdateDelete removes an object identified by its current From rectangle.
	UpdateDelete
	// UpdateMove relocates an object from its From to its To rectangle.
	UpdateMove
)

// UpdateOp is one index mutation in a batched update request. Rectangles are
// matched exactly against the stored entry (the R-tree delete contract), so
// clients must echo rectangles at wire precision — see docs/UPDATES.md.
type UpdateOp struct {
	Kind UpdateKind
	Obj  rtree.ObjectID
	From geom.Rect // delete/move: the object's current rectangle
	To   geom.Rect // insert/move: the object's new rectangle
	Size int       // insert: payload bytes
}

// CutElem is one element of a shipped node representation: a real entry
// (child node or object) or a super entry of the node's partition tree.
type CutElem struct {
	Code  bpt.Code
	MBR   geom.Rect
	Super bool
	Child rtree.NodeID   // real entry referencing a child node
	Obj   rtree.ObjectID // real entry referencing an object
}

// Ref converts the element to a query engine reference, given the node it
// belongs to.
func (e CutElem) Ref(node rtree.NodeID) query.Ref {
	switch {
	case e.Super:
		return query.SuperRef(node, e.Code, e.MBR)
	case e.Child != rtree.InvalidNode:
		return query.NodeRef(e.Child, e.MBR)
	default:
		return query.ObjectRef(e.Obj, e.MBR)
	}
}

// NodeRep is the shipped representation of one index node: a cut of its
// binary partition tree (Section 4.2). Full form is the cut of all real
// entries.
type NodeRep struct {
	ID    rtree.NodeID
	Level int
	Elems []CutElem
}

// ObjectRep is one result object. Payload reports whether the object's bytes
// ride along (false when the server knows the client already holds them,
// i.e. deferred confirmations).
type ObjectRep struct {
	ID      rtree.ObjectID
	MBR     geom.Rect
	Size    int
	Payload bool
}

// Response is the downlink message.
type Response struct {
	// Objects are the remainder result objects Rr in server confirmation
	// order (ascending distance for kNN), streamed first.
	Objects []ObjectRep

	// Pairs lists join result pairs by object id; every id appears in
	// Objects or was locally confirmed by the client.
	Pairs [][2]rtree.ObjectID

	// Index is the supporting index Ir, parents before children.
	Index []NodeRep

	// K echoes the remainder kNN count the server solved (diagnostics).
	K int

	// RootID and RootMBR answer catalog requests and track root changes
	// after index updates.
	RootID  rtree.NodeID
	RootMBR geom.Rect

	// Epoch is the server's current update epoch; InvalidNodes and
	// InvalidObjs list what changed since the request's epoch. FlushAll
	// tells a client that fell off the update-log horizon to drop its
	// entire cache.
	Epoch        uint64
	FlushAll     bool
	InvalidNodes []rtree.NodeID
	InvalidObjs  []rtree.ObjectID

	// UpdateResults answers a batched update request: one entry per
	// Request.Updates operation, true when it was applied (a delete or move
	// whose From rectangle matched nothing reports false). Epoch above is the
	// epoch after the batch was published.
	UpdateResults []bool
}

// ResponsePool recycles responses together with their backing slices
// (including per-NodeRep element arrays, whose capacity survives past Index's
// length). The zero value is ready; it is safe for concurrent use.
type ResponsePool struct{ p sync.Pool }

// Get returns a zeroed response, recycled when one was put back.
func (p *ResponsePool) Get() *Response {
	if resp, _ := p.p.Get().(*Response); resp != nil {
		return resp
	}
	return &Response{}
}

// Put zeroes resp, keeping only the capacity of its slices, and pools it.
// The caller must not touch resp afterwards. A nil resp is ignored.
func (p *ResponsePool) Put(resp *Response) {
	if resp == nil {
		return
	}
	*resp = Response{
		Objects:       resp.Objects[:0],
		Pairs:         resp.Pairs[:0],
		Index:         resp.Index[:0],
		InvalidNodes:  resp.InvalidNodes[:0],
		InvalidObjs:   resp.InvalidObjs[:0],
		UpdateResults: resp.UpdateResults[:0],
	}
	p.p.Put(resp)
}

// SizeModel assigns wire sizes in bytes. The defaults model the paper's
// setup: 4 KB pages of 20-byte entries (four float32 coordinates plus a
// 4-byte pointer), 4-byte object identifiers, and compact binary headers.
type SizeModel struct {
	Entry      int // node entry / cut element (super entries: MBR + code)
	NodeHeader int // per shipped NodeRep
	Query      int // query descriptor (kind + parameters)
	Elem       int // queued element reference in H (id + flags)
	PairElem   int // queued pair element in H
	ObjHeader  int // per ObjectRep (id + MBR + size)
	MsgHeader  int // fixed per request/response framing
	ID         int // bare object id (page-caching uplink)
	PairID     int // join pair (two ids)
	Feedback   int // piggybacked fmr feedback
}

// DefaultSizeModel returns the byte model used throughout the experiments.
func DefaultSizeModel() SizeModel {
	return SizeModel{
		Entry:      20,
		NodeHeader: 8,
		Query:      24,
		Elem:       10,
		PairElem:   18,
		ObjHeader:  24,
		MsgHeader:  16,
		ID:         4,
		PairID:     8,
		Feedback:   4,
	}
}

// RequestBytes returns the uplink size of a request.
func (m SizeModel) RequestBytes(r *Request) int {
	n := m.MsgHeader + m.Query
	for _, qe := range r.H {
		if qe.Elem.Pair {
			n += m.PairElem
		} else {
			n += m.Elem
		}
	}
	n += len(r.CachedIDs) * m.ID
	n += len(r.SemWindows) * 16 // four float32 coordinates per window
	if r.HasFMR {
		n += m.Feedback
	}
	for _, u := range r.Updates {
		n += 1 + m.ID + 16 // kind + object id + one rectangle
		if u.Kind == UpdateMove {
			n += 16 // second rectangle
		}
		if u.Kind == UpdateInsert {
			n += 4 // payload size
		}
	}
	if r.Bound > 0 {
		n += 4 // float32 shard-routing bound
	}
	return n
}

// IndexBytes returns the size of the supporting index portion of a response.
func (m SizeModel) IndexBytes(r *Response) int {
	n := 0
	for _, rep := range r.Index {
		n += m.NodeHeader + len(rep.Elems)*m.Entry
	}
	return n
}

// ResponseBytes returns the total downlink size of a response.
func (m SizeModel) ResponseBytes(r *Response) int {
	n := m.MsgHeader
	for _, o := range r.Objects {
		n += m.ObjHeader
		if o.Payload {
			n += o.Size
		}
	}
	n += len(r.Pairs) * m.PairID
	n += m.IndexBytes(r)
	n += (len(r.InvalidNodes) + len(r.InvalidObjs)) * m.ID
	n += len(r.UpdateResults) // one status byte per acknowledged operation
	return n
}

// Channel models the wireless link: a fixed bandwidth plus an optional fixed
// per-message latency. The paper's 3G setting is 384 Kbps with negligible
// latency.
type Channel struct {
	BytesPerSec float64
	Latency     float64
}

// DefaultChannel returns the paper's 384 Kbps channel.
func DefaultChannel() Channel {
	return Channel{BytesPerSec: 384_000 / 8}
}

// TransferTime returns the time to move n bytes over the channel.
func (c Channel) TransferTime(n int) float64 {
	if c.BytesPerSec <= 0 {
		return c.Latency
	}
	return c.Latency + float64(n)/c.BytesPerSec
}

// ResponseTimeline computes, for each response object, the elapsed time from
// query issue until the object is fully delivered, assuming the request is
// sent first and the response streams objects in order (results before
// index). It returns the per-object completion times aligned with
// resp.Objects, and the time at which the whole response (including Ir)
// finishes.
func (m SizeModel) ResponseTimeline(ch Channel, reqBytes int, resp *Response) (objDone []float64, total float64) {
	down := func(n int) float64 {
		if ch.BytesPerSec <= 0 {
			return 0
		}
		return float64(n) / ch.BytesPerSec
	}
	start := ch.TransferTime(reqBytes) + ch.Latency // uplink, then downlink latency
	objDone = make([]float64, len(resp.Objects))
	bytes := m.MsgHeader
	for i, o := range resp.Objects {
		bytes += m.ObjHeader
		if o.Payload {
			bytes += o.Size
		}
		objDone[i] = start + down(bytes)
	}
	bytes += len(resp.Pairs) * m.PairID
	bytes += m.IndexBytes(resp)
	total = start + down(bytes)
	return objDone, total
}
