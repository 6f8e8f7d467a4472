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
//	ClusterServer — spatial shards (R*-tree + partition-tree pages +
//	                remainder-query processor each) behind one router;
//	                a single node is a one-shard cluster
//	Client        — proactive cache + Algorithm 1 local processor
//	NewRange / NewKNN / NewJoin — query constructors
//
// A minimal session:
//
//	srv, err := repro.NewClusterServer(objects, repro.ClusterConfig{Shards: 1})
//	cl, err := repro.NewClient(srv.Transport(), repro.ClientConfig{CacheBytes: 1 << 20})
//	rep, err := cl.Query(repro.NewKNN(repro.Pt(0.5, 0.5), 3))
//
// See examples/ for runnable programs and internal/sim for the experiment
// harness that regenerates the paper's figures.
package repro

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
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
	bc, err := wire.Dial(addr, 10*time.Second)
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
