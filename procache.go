// Package repro is a from-scratch Go implementation of "Proactive Caching
// for Spatial Queries in Mobile Environments" (Hu, Xu, Wong, Zheng, Lee,
// Lee — ICDE 2005).
//
// Proactive caching lets a mobile client answer range, k-nearest-neighbor
// and distance self-join queries locally by caching not just query results
// but the R*-tree index nodes that prove those results. A query that cannot
// finish locally hands its execution state (the best-first priority queue)
// to the server as a remainder query; the server resumes it and ships back
// the remaining results plus a supporting index in full, compact, or
// adaptively refined form (binary partition trees / super entries).
//
// This package is the facade over the building blocks in internal/:
//
//	Server     — R*-tree + partition-tree pages + remainder-query processor
//	Client     — proactive cache + Algorithm 1 local processor
//	NewRange / NewKNN / NewJoin — query constructors
//
// A minimal session:
//
//	srv := repro.NewServer(objects, repro.ServerConfig{})
//	cl := repro.NewClient(srv.Transport(), repro.ClientConfig{CacheBytes: 1 << 20})
//	rep, err := cl.Query(repro.NewKNN(repro.Pt(0.5, 0.5), 3))
//
// See examples/ for runnable programs and internal/sim for the experiment
// harness that regenerates the paper's figures.
package repro

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wire"
)

// Re-exported building-block types. The aliases keep the public API surface
// in one place while the implementations live in internal packages.
type (
	// Point is a location in the unit square.
	Point = geom.Point
	// Rect is an axis-aligned rectangle (an MBR).
	Rect = geom.Rect
	// ObjectID identifies a data object.
	ObjectID = rtree.ObjectID
	// Object is one spatial object: id, bounding rectangle, payload size.
	Object = dataset.Object
	// Query is a spatial query (range, kNN, or windowed distance self-join).
	Query = query.Query
	// Report is the per-query outcome: results, byte and timing accounting.
	Report = core.Report
	// Policy selects the cache replacement scheme.
	Policy = core.Policy
	// Transport carries requests to a server (in-process or remote).
	Transport = wire.Transport
	// IndexForm selects how the server represents shipped index nodes.
	IndexForm = server.IndexForm
	// UpdateOp is one index mutation in a batched update request.
	UpdateOp = wire.UpdateOp
)

// Batched update operation kinds (Request.Updates).
const (
	UpdateInsert = wire.UpdateInsert
	UpdateDelete = wire.UpdateDelete
	UpdateMove   = wire.UpdateMove
)

// Replacement policies (Section 5).
const (
	GRD3 = core.GRD3
	GRD2 = core.GRD2
	LRU  = core.LRU
	MRU  = core.MRU
	FAR  = core.FAR
)

// Index forms (Section 4).
const (
	FullForm     = server.FullForm
	CompactForm  = server.CompactForm
	AdaptiveForm = server.AdaptiveForm
)

// Pt is shorthand for a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// R is shorthand for a Rect.
func R(minX, minY, maxX, maxY float64) Rect { return geom.R(minX, minY, maxX, maxY) }

// RectFromCenter builds the w-by-h rectangle centered at c.
func RectFromCenter(c Point, w, h float64) Rect { return geom.RectFromCenter(c, w, h) }

// NewRange builds a range query over a window.
func NewRange(window Rect) Query { return query.NewRange(window) }

// NewKNN builds a k-nearest-neighbor query around a point.
func NewKNN(center Point, k int) Query { return query.NewKNN(center, k) }

// NewJoin builds a distance self-join over the window with the given
// distance threshold.
func NewJoin(window Rect, dist float64) Query { return query.NewJoin(window, dist) }

// ServerConfig parameterizes NewServer.
type ServerConfig struct {
	// Form selects the supporting-index representation; default adaptive.
	Form IndexForm
	// Sensitivity is the adaptive s parameter; default 0.20.
	Sensitivity float64
	// PageBytes sizes index pages; default 4096 (about 204 entries).
	PageBytes int
	// BulkFill is the bulk-load fill factor; default 0.7.
	BulkFill float64
}

// Server owns a spatial dataset, its R*-tree, and the proactive-caching
// remainder-query processor. Query execution (Transport, Serve, NetServer)
// is safe for any number of concurrent clients and never locks the index:
// queries pin an immutable snapshot while a single writer goroutine batches
// updates and publishes fresh snapshots (see docs/UPDATES.md). The facade
// mutators (InsertObject, DeleteObject, MoveObject) are safe to call
// concurrently with queries, but must not race with each other or with
// wire-level batched updates — they track object rectangles in an auxiliary
// map that assumes one updater. Remote clients can ship batched updates over
// the wire (Request.Updates); SetRemoteUpdates gates that path.
type Server struct {
	inner *server.Server
	// sizes is the build-time size map; it is never written after
	// NewServer (post-build sizes live inside the inner server), so
	// concurrent queries may read it freely.
	sizes map[ObjectID]int
	// mbrs tracks current object rectangles; only the mutators touch it.
	mbrs          map[ObjectID]Rect
	stats         metrics.ServerStats
	remoteUpdates atomic.Bool
	follower      atomic.Bool
}

// NewServer indexes the objects and stands up a server.
func NewServer(objects []Object, cfg ServerConfig) *Server {
	if cfg.PageBytes <= 0 {
		cfg.PageBytes = 4096
	}
	if cfg.BulkFill <= 0 {
		cfg.BulkFill = 0.7
	}
	entrySize := wire.DefaultSizeModel().Entry
	params := rtree.Params{MaxEntries: cfg.PageBytes / entrySize}

	items := make([]rtree.Item, len(objects))
	sizes := make(map[ObjectID]int, len(objects))
	mbrs := make(map[ObjectID]Rect, len(objects))
	for i, o := range objects {
		items[i] = rtree.Item{Obj: o.ID, MBR: o.MBR}
		sizes[o.ID] = o.Size
		mbrs[o.ID] = o.MBR
	}
	tree := rtree.BulkLoad(params, items, cfg.BulkFill)
	inner := server.New(tree, func(id ObjectID) int { return sizes[id] }, server.Config{
		Form:        cfg.Form,
		Sensitivity: cfg.Sensitivity,
	})
	s := &Server{inner: inner, sizes: sizes, mbrs: mbrs}
	s.remoteUpdates.Store(true)
	return s
}

// SetRemoteUpdates enables or disables wire-level batched updates
// (Request.Updates). Enabled by default; a read-only deployment (cmd/prodb
// -updates=false) rejects update requests with an error response while local
// mutators keep working.
func (s *Server) SetRemoteUpdates(on bool) { s.remoteUpdates.Store(on) }

// SetFollower puts the server in warm-standby mode (cmd/prodb -follower):
// only the primary's replication stream may mutate it — wire updates must
// carry the Request.Replica flag or they are rejected — while queries keep
// answering normally, so a router can promote it the moment the primary
// dies (docs/DURABILITY.md). Off by default.
func (s *Server) SetFollower(on bool) { s.follower.Store(on) }

// Close stops the server's background update writer, waiting for queued
// update batches to be applied. Call it after the serving layer has drained;
// queries remain answerable afterwards, further updates are dropped.
func (s *Server) Close() { s.inner.Close() }

// InsertObject adds a new object to the live index. Connected clients learn
// about it through the epoch-based invalidation protocol.
func (s *Server) InsertObject(o Object) {
	s.inner.InsertObject(o.ID, o.MBR, o.Size)
	s.mbrs[o.ID] = o.MBR
}

// DeleteObject removes an object from the live index; it reports whether
// the object existed.
func (s *Server) DeleteObject(id ObjectID) bool {
	mbr, ok := s.mbrs[id]
	if !ok {
		return false
	}
	if !s.inner.DeleteObject(id, mbr) {
		return false
	}
	delete(s.mbrs, id)
	return true
}

// MoveObject relocates an object to a new bounding rectangle.
func (s *Server) MoveObject(id ObjectID, to Rect) bool {
	from, ok := s.mbrs[id]
	if !ok {
		return false
	}
	if !s.inner.MoveObject(id, from, to) {
		return false
	}
	s.mbrs[id] = to
	return true
}

// Epoch returns the server's current update epoch.
func (s *Server) Epoch() uint64 { return s.inner.Epoch() }

// Transport returns an in-process transport to this server. Transports are
// safe for concurrent use; each simulated client may hold its own.
func (s *Server) Transport() Transport {
	return wire.TransportFunc(s.Handler())
}

// ErrUpdatesDisabled is returned to wire clients shipping batched updates to
// a server running with remote updates disabled.
var ErrUpdatesDisabled = errors.New("repro: remote updates disabled")

// ErrNotPrimary is returned to wire clients shipping batched updates to a
// follower: only the primary's replication stream (Request.Replica) may
// mutate a warm standby.
var ErrNotPrimary = errors.New("repro: follower: updates accepted only from the primary's replication stream")

// Handler returns the server's request handler for use with a custom
// wire.NetServer. A request carrying Updates is routed through the batched
// single-writer update path; everything else executes as a query. Updates
// pass only when remote updates are on and, in follower mode, the request
// is a replication-stream message.
func (s *Server) Handler() wire.Handler {
	return func(req *wire.Request) (*wire.Response, error) {
		if len(req.Updates) > 0 {
			if !s.remoteUpdates.Load() {
				return nil, ErrUpdatesDisabled
			}
			if s.follower.Load() && !req.Replica {
				return nil, ErrNotPrimary
			}
			return s.inner.ExecuteUpdates(req), nil
		}
		resp, _ := s.inner.Execute(req)
		return resp, nil
	}
}

// ApplyUpdates applies a batch of index updates through the single-writer
// queue, blocking until the batch's snapshot is published. It returns one
// applied/failed flag per operation. Unlike the single-object facade
// mutators it does not maintain the rectangle-tracking map, so it composes
// with wire-fed updates but not with DeleteObject/MoveObject bookkeeping.
func (s *Server) ApplyUpdates(ops []wire.UpdateOp) []bool {
	return s.inner.ApplyUpdates(ops, nil)
}

// ServeOptions tunes the network serving layer (see wire.ServeConfig for
// field semantics). The zero value applies production defaults.
type ServeOptions struct {
	// MaxConns caps concurrently open connections (default 4096).
	MaxConns int
	// MaxInflight caps concurrently executing requests (default
	// 4*GOMAXPROCS).
	MaxInflight int
	// MaxPipeline caps requests in flight on one binary connection
	// (default 64).
	MaxPipeline int
	// ReadTimeout reaps connections idle between requests (default 5m;
	// negative disables). Dialed transports do not reconnect: a client
	// that may sit idle longer than this must either send periodic
	// Sync heartbeats, redial on error, or be served with a negative
	// ReadTimeout.
	ReadTimeout time.Duration
}

// NetServer builds a concurrent TCP server over this spatial database: a
// goroutine per connection behind a connection limit, a bounded worker pool
// for request execution, idle-connection reaping, and graceful Shutdown.
// Serving statistics accumulate in Stats.
func (s *Server) NetServer(opts ServeOptions) *wire.NetServer {
	return wire.NewNetServer(s.Handler(), wire.ServeConfig{
		MaxConns:    opts.MaxConns,
		MaxInflight: opts.MaxInflight,
		MaxPipeline: opts.MaxPipeline,
		ReadTimeout: opts.ReadTimeout,
		Stats:       &s.stats,
		// Responses are recycled once their bytes are on the wire, keeping
		// the warm serving path allocation-free end to end.
		Release: s.inner.ReleaseResponse,
	})
}

// Serve answers proactive-caching clients on a listener with default
// options until the listener closes (the TCP wire protocol of cmd/prodb:
// binary with pipelining). It blocks. For shutdown control, use NetServer
// instead.
func (s *Server) Serve(ln net.Listener) error {
	if err := s.NetServer(ServeOptions{}).Serve(ln); err != nil && err != wire.ErrServerClosed {
		return fmt.Errorf("repro: serve: %w", err)
	}
	return nil
}

// Stats returns a snapshot of the serving-layer counters: connection churn,
// requests served, and request latency quantiles.
func (s *Server) Stats() metrics.ServerSnapshot { return s.stats.Snapshot() }

// IndexStats describes the server-side R*-tree, measured against one
// snapshot so it is safe to call while updates are streaming in.
func (s *Server) IndexStats() rtree.Stats {
	var st rtree.Stats
	s.inner.View(func(t *rtree.Tree, _ uint64) { st = t.Stats() })
	return st
}

// ClientConfig parameterizes NewClient.
type ClientConfig struct {
	// ID distinguishes clients for per-client adaptive state; default 1.
	ID uint32
	// CacheBytes is the proactive cache capacity. Required.
	CacheBytes int
	// Policy is the replacement scheme; default GRD3.
	Policy Policy
	// FMRPeriod is the feedback cadence in queries; default 50.
	FMRPeriod int
	// BandwidthBps models the wireless channel; default 384 kbps.
	BandwidthBps float64
	// LatencySec is the fixed per-message latency; default 0.
	LatencySec float64
}

// Client is a proactive-caching mobile client.
type Client struct {
	inner *core.Client
}

// NewClient connects a proactive-caching client to a server via transport.
// It performs a catalog round trip to learn the index root.
func NewClient(t Transport, cfg ClientConfig) (*Client, error) {
	if cfg.CacheBytes <= 0 {
		return nil, fmt.Errorf("repro: ClientConfig.CacheBytes must be positive")
	}
	if cfg.ID == 0 {
		cfg.ID = 1
	}
	if cfg.Policy == 0 {
		cfg.Policy = GRD3
	}
	if cfg.FMRPeriod <= 0 {
		cfg.FMRPeriod = 50
	}
	ch := wire.DefaultChannel()
	if cfg.BandwidthBps > 0 {
		ch.BytesPerSec = cfg.BandwidthBps / 8
	}
	ch.Latency = cfg.LatencySec

	cat, err := t.RoundTrip(&wire.Request{Client: wire.ClientID(cfg.ID), Catalog: true})
	if err != nil {
		return nil, fmt.Errorf("repro: catalog: %w", err)
	}
	sizes := wire.DefaultSizeModel()
	cache := core.NewCache(cfg.CacheBytes, cfg.Policy, sizes)
	inner := core.NewClient(core.ClientConfig{
		ID:        wire.ClientID(cfg.ID),
		Root:      query.NodeRef(cat.RootID, cat.RootMBR),
		Sizes:     sizes,
		Channel:   ch,
		FMRPeriod: cfg.FMRPeriod,
	}, cache, t)
	return &Client{inner: inner}, nil
}

// Query processes one spatial query: local execution against the proactive
// cache, a remainder round trip when needed, and cache integration.
func (c *Client) Query(q Query) (Report, error) { return c.inner.Query(q) }

// SetPosition updates the client's location (used by the FAR policy).
func (c *Client) SetPosition(p Point) { c.inner.SetPosition(p) }

// Sync pulls the server's invalidation report without running a query — a
// cheap consistency heartbeat under server updates. It returns the number
// of cache items dropped.
func (c *Client) Sync() (int, error) { return c.inner.Sync() }

// CacheUsed returns the occupied cache bytes.
func (c *Client) CacheUsed() int { return c.inner.Cache().Used() }

// CacheIndexBytes returns the bytes of cached index (vs objects).
func (c *Client) CacheIndexBytes() int { return c.inner.Cache().IndexBytes() }

// Dial connects to a cmd/prodb server over TCP and returns a Transport
// speaking the binary protocol (pipelined: concurrent RoundTrip calls share
// the connection with many requests in flight). Connect and handshake are
// bounded by 10 s together; a peer that is not a server of this protocol
// version fails the dial with wire.ErrProtocolMismatch.
func Dial(addr string) (Transport, error) {
	bc, err := wire.Dial(addr, wire.RoleClient, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return bc, nil
}

// GenerateNE and GenerateRD expose the synthetic datasets used by the
// experiments (see internal/dataset for the substitution rationale).
func GenerateNE(n int, seed int64) []Object {
	return dataset.GenerateNE(dataset.Params{N: n, Seed: seed}).Objects
}

// GenerateRD generates the road-segment dataset.
func GenerateRD(n int, seed int64) []Object {
	return dataset.GenerateRD(dataset.Params{N: n, Seed: seed}).Objects
}
