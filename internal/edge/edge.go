// Package edge implements an edge cache tier for the proactive-caching
// cluster: a proxy node that terminates the unmodified wire protocol,
// answers popular cold range/kNN queries from its own cache of canonical
// upstream responses, and forwards everything else to the cluster router.
//
// The cache is keyed by the exact query signature and grouped by KD
// partition cell (the same cells the router shards by): per-cell hotness —
// a windowed EWMA of cacheable-query arrivals — drives admission, so only
// cells above a threshold materialize entries, and a byte budget evicts
// from the coldest cells first. Consistency is inherited from the cluster's
// epoch/invalidation machinery rather than re-proven: the edge subscribes
// to the invalidation stream by issuing catalog requests under its own
// reserved client id (exactly the piggybacked window every client already
// receives) and drops cached entries whose dependency set — the node ids of
// the shipped supporting index plus the result object ids — intersects the
// delivered window. docs/EDGE.md states the full consistency argument.
package edge

import (
	"container/list"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// EdgeClientID is the upstream identity the edge uses for its own catalog
// syncs. It is the top of the ClientID space; end clients must not use it.
const EdgeClientID = ^wire.ClientID(0)

// Config parameterizes an Edge.
type Config struct {
	// Upstream is the cluster router (or any wire server) behind the edge;
	// required.
	Upstream wire.Transport
	// Locate maps a query center to its KD partition cell and Cells is the
	// number of cells; required (cluster.Router.Partition provides both).
	Locate func(geom.Point) int
	Cells  int
	// ReleaseUpstream, when set, returns forwarded responses the edge has
	// finished copying from back to the upstream pool. Responses served to
	// clients are never pooled — the client owns them.
	ReleaseUpstream func(*wire.Response)
	// ByteBudget caps the cache footprint in SizeModel bytes (default 32 MiB).
	ByteBudget int
	// AdmitThreshold is the per-cell hotness (EWMA of cacheable queries per
	// window) above which responses are materialized (default 32).
	AdmitThreshold float64
	// Window is the hotness window length in cacheable queries (default
	// 512); the EWMA weighs the newest window by hotAlpha.
	Window int
	// SyncInterval, when positive, adds a time-based floor under the
	// invalidation subscription: a request arriving more than this after the
	// last sync re-syncs first, bounding the staleness window against
	// writers that bypass the edge. Sole-ingress deployments (every update
	// flows through the edge, which syncs on each ack) can leave it zero.
	SyncInterval time.Duration
}

// hotAlpha is the EWMA weight of the newest hotness window.
const hotAlpha = 0.5

// stamp records what the edge knows one client has been delivered: the
// virtual epoch of the client's last forwarded response, bound to the edge
// state it was observed under. A cache hit is served only to a client whose
// stamp is current — then the empty invalidation window and echoed epoch the
// hit carries are exactly what the router would have produced.
type stamp struct {
	epoch uint64
	state uint64
}

// entry is one materialized response: client-independent content plus the
// dependency set its validity rides on.
//
// With never-reused NodeIDs every shipped node rep is immutable per id —
// except the synthesized virtual root (cluster.VirtualRoot), whose id is
// fixed while its content tracks the shard roots. Storing the vroot rep in
// the entry would force a drop on *every* upstream change (the vroot sits
// in every crossing invalidation window), so entries are kept "stripped":
// the vroot rep is removed from the cached index and the edge's current
// harvested rep is substituted at serve time. Correctness of retention is
// re-checked per hit against the current vroot children (see lookup).
type entry struct {
	key     string
	cell    int
	bytes   int
	objects []wire.ObjectRep
	pairs   [][2]rtree.ObjectID
	index   []wire.NodeRep
	k       int
	rootID  rtree.NodeID
	rootMBR geom.Rect
	deps    map[rtree.NodeID]struct{}
	objDeps map[rtree.ObjectID]struct{}
	elem    *list.Element // position in its cell's LRU list

	stripped bool        // index excludes the vroot rep; substitute at serve
	q        query.Query // the admitted query, for the retention safety check
	rk       float64     // kNN contribution radius: max result distance, +Inf when short of K
}

// cellState is the hotness accounting and LRU chain of one partition cell.
type cellState struct {
	hot float64 // EWMA of cacheable queries per window
	cur float64 // arrivals in the current window
	lru *list.List
}

// Edge is the proxy. It implements wire.Transport, so it slots in anywhere
// a router or server does; callers own the responses it returns (they are
// never pooled).
type Edge struct {
	cfg   Config
	stats metrics.EdgeStats

	// syncMu serializes upstream catalog syncs (one subscriber, one stream).
	syncMu sync.Mutex

	mu       sync.Mutex
	state    uint64    // bumped on every accepted upstream change
	epoch    uint64    // edge's own last-synced virtual epoch
	dirty    bool      // evidence of an upstream change not yet synced
	lastSync time.Time // for the SyncInterval floor
	inflight int       // relayed update batches not yet acked+synced
	reqCount int       // cacheable queries since the last window roll
	entries  map[string]*entry
	bytes    int
	cells    []cellState
	stamps   map[wire.ClientID]stamp
	tainted  map[wire.ClientID]struct{}

	// The current virtual-root rep, harvested from forwarded responses that
	// shipped index under a current stamp gate. vrootState pins the harvest
	// to an edge state: after any accepted upstream change (state bump) the
	// rep is stale and stripped entries cannot hit until a forward
	// re-harvests it.
	vroot      wire.NodeRep
	vrootMBR   geom.Rect
	vrootState uint64
	vrootOK    bool
}

// maxStamps bounds the per-client maps; beyond it an arbitrary client is
// forgotten (and simply forwarded until re-stamped).
const maxStamps = 1 << 18

// New builds an edge over cfg.Upstream and performs the initial catalog
// sync that establishes its epoch baseline.
func New(cfg Config) (*Edge, error) {
	if cfg.Upstream == nil {
		return nil, errors.New("edge: Config.Upstream is required")
	}
	if cfg.Locate == nil || cfg.Cells <= 0 {
		return nil, errors.New("edge: Config.Locate and Config.Cells are required")
	}
	if cfg.ByteBudget <= 0 {
		cfg.ByteBudget = 32 << 20
	}
	if cfg.AdmitThreshold <= 0 {
		cfg.AdmitThreshold = 32
	}
	if cfg.Window <= 0 {
		cfg.Window = 512
	}
	e := &Edge{
		cfg:     cfg,
		entries: make(map[string]*entry),
		cells:   make([]cellState, cfg.Cells),
		stamps:  make(map[wire.ClientID]stamp),
		tainted: make(map[wire.ClientID]struct{}),
	}
	for i := range e.cells {
		e.cells[i].lru = list.New()
	}
	// Baseline sync: learn the cluster's current epoch under the edge's own
	// client id. Whatever window it delivers is moot — the cache is empty.
	resp, err := cfg.Upstream.RoundTrip(&wire.Request{Client: EdgeClientID, Catalog: true})
	if err != nil {
		return nil, err
	}
	e.stats.Syncs.Add(1)
	e.epoch = resp.Epoch
	e.lastSync = time.Now()
	e.releaseUpstream(resp)
	return e, nil
}

// Stats returns the edge's counters.
func (e *Edge) Stats() *metrics.EdgeStats { return &e.stats }

func (e *Edge) releaseUpstream(resp *wire.Response) {
	if e.cfg.ReleaseUpstream != nil {
		e.cfg.ReleaseUpstream(resp)
	}
}

// RoundTrip implements wire.Transport.
func (e *Edge) RoundTrip(req *wire.Request) (*wire.Response, error) {
	if len(req.Updates) > 0 {
		return e.roundTripUpdate(req)
	}
	if req.HasFMR || len(req.CachedIDs) > 0 || len(req.SemWindows) > 0 {
		// FMR feedback moves the client's server-side refinement level d, so
		// its responses stop matching the d-at-default content the cache
		// holds; the baseline fields likewise make content client-specific.
		// Taint is forever: cheap, and such clients are rare.
		e.mu.Lock()
		e.taintLocked(req.Client)
		e.mu.Unlock()
	}
	if e.needSync() {
		// Evidence of an upstream change arrived on an earlier forwarded
		// response (or the SyncInterval floor expired): refresh the
		// subscription before answering anything else.
		e.sync(false)
	}
	if cacheable(req) {
		if resp := e.lookup(req); resp != nil {
			return resp, nil
		}
	}
	return e.forward(req)
}

// cacheable reports whether a request's canonical response is
// client-independent (given an untainted client) and therefore servable
// from the shared cache: a pure cold range or kNN query with no handed-over
// state, no baseline fields, and no routing metadata. NoIndex responses are
// excluded — without a shipped index the dependency set is too thin to
// invalidate precisely.
func cacheable(req *wire.Request) bool {
	return !req.Catalog && !req.NoIndex && !req.HasFMR && !req.Replica &&
		len(req.H) == 0 && len(req.CachedIDs) == 0 && len(req.SemWindows) == 0 &&
		len(req.Updates) == 0 && req.Bound == 0 &&
		(req.Q.Kind == query.Range || req.Q.Kind == query.KNN)
}

// cacheKey is the exact query signature: kind, full-precision geometry, K.
// Exact float64 bits, not wire-quantized ones — two queries may only share
// an entry if the upstream server would compute identical responses.
func cacheKey(q query.Query) string {
	var b [1 + 8*7 + 8]byte
	b[0] = byte(q.Kind)
	le := binary.LittleEndian
	le.PutUint64(b[1:], math.Float64bits(q.Window.MinX))
	le.PutUint64(b[9:], math.Float64bits(q.Window.MinY))
	le.PutUint64(b[17:], math.Float64bits(q.Window.MaxX))
	le.PutUint64(b[25:], math.Float64bits(q.Window.MaxY))
	le.PutUint64(b[33:], math.Float64bits(q.Center.X))
	le.PutUint64(b[41:], math.Float64bits(q.Center.Y))
	le.PutUint64(b[49:], math.Float64bits(q.Dist))
	le.PutUint64(b[57:], uint64(q.K))
	return string(b[:])
}

// cellOf maps the query to its hotness cell: the KD partition cell owning
// the query's reference point, mirroring the router's shard routing.
func (e *Edge) cellOf(q query.Query) int {
	pt := q.Center
	if q.Kind == query.Range {
		pt = q.Window.Center()
	}
	c := e.cfg.Locate(pt)
	if c < 0 || c >= len(e.cells) {
		return 0
	}
	return c
}

// needSync reports whether evidence of an un-synced upstream change exists
// or the time-based sync floor expired.
func (e *Edge) needSync() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.needSyncLocked()
}

func (e *Edge) needSyncLocked() bool {
	if e.dirty {
		return true
	}
	return e.cfg.SyncInterval > 0 && time.Since(e.lastSync) >= e.cfg.SyncInterval
}

// lookup serves a cacheable request from the cache when both the entry and
// the client's stamp are current. It also files the request into the cell's
// hotness window — demand is counted whether or not it hits.
func (e *Edge) lookup(req *wire.Request) *wire.Response {
	key := cacheKey(req.Q)
	cell := e.cellOf(req.Q)

	e.mu.Lock()
	defer e.mu.Unlock()
	e.touchLocked(cell)
	if e.dirty || e.inflight > 0 {
		e.stats.Misses.Add(1)
		return nil
	}
	if _, bad := e.tainted[req.Client]; bad {
		e.stats.Misses.Add(1)
		return nil
	}
	st, ok := e.stamps[req.Client]
	if !ok || st.state != e.state || st.epoch != req.Epoch {
		// The client has not yet been delivered the current window under
		// this edge state (or quotes an older epoch); the router must answer
		// so the invalidation protocol stays exact.
		e.stats.Misses.Add(1)
		return nil
	}
	ent := e.entries[key]
	if ent == nil {
		e.stats.Misses.Add(1)
		return nil
	}
	rootMBR := ent.rootMBR
	var vroot *wire.NodeRep
	if ent.stripped {
		// Substituting the current vroot rep requires one harvested under this
		// exact edge state, and the retention safety check must rule out any
		// current shard root the entry never visited reaching into the query.
		if !e.vrootOK || e.vrootState != e.state {
			e.stats.Misses.Add(1)
			return nil
		}
		if !e.retainedSafeLocked(ent) {
			// An unvisited shard grew into the query's reach: the cached
			// response may now miss results, and that shard's growth never
			// touches the entry's dependency set — drop now so the forward
			// this miss causes re-admits fresh content with full deps.
			e.dropLocked(ent)
			e.stats.Invalidations.Add(1)
			e.stats.Misses.Add(1)
			return nil
		}
		vroot = &e.vroot
		rootMBR = e.vrootMBR
	}
	e.cells[ent.cell].lru.MoveToBack(ent.elem)
	e.stats.Hits.Add(1)
	// The hit response is rebuilt fresh — the client owns it, and the echoed
	// epoch plus empty invalidation lists are byte-identical to the router's
	// answer for a current client (epoch commits dedup unchanged vectors).
	index := copyIndex(ent.index)
	if vroot != nil {
		// Re-append where the router put it: last.
		index = append(index, wire.NodeRep{
			ID:    vroot.ID,
			Level: vroot.Level,
			Elems: append([]wire.CutElem(nil), vroot.Elems...),
		})
	}
	return &wire.Response{
		Objects: append([]wire.ObjectRep(nil), ent.objects...),
		Pairs:   append([][2]rtree.ObjectID(nil), ent.pairs...),
		Index:   index,
		K:       ent.k,
		RootID:  ent.rootID,
		RootMBR: rootMBR,
		Epoch:   req.Epoch,
	}
}

// forward relays a request upstream, harvesting the response: the client's
// stamp is refreshed, upstream-change evidence flags a sync, and cacheable
// responses from hot cells are admitted.
func (e *Edge) forward(req *wire.Request) (*wire.Response, error) {
	e.mu.Lock()
	issueState := e.state
	e.mu.Unlock()

	e.stats.Forwards.Add(1)
	resp, err := e.cfg.Upstream.RoundTrip(req)
	if err != nil {
		return nil, err
	}

	e.mu.Lock()
	_, bad := e.tainted[req.Client]
	switch {
	case resp.FlushAll:
		// The router flushed this client (log horizon, failover, restart):
		// treat it as evidence the world moved and re-sync before serving
		// hits again.
		delete(e.stamps, req.Client)
		e.dirty = true
	case bad:
		// Tainted clients never hit; no stamp needed.
	case issueState == e.state && e.inflight == 0 && !e.dirty:
		if st, ok := e.stamps[req.Client]; ok && st.state == e.state &&
			st.epoch == req.Epoch && resp.Epoch != req.Epoch {
			// A client the edge believed fully current was handed a newer
			// epoch: the cluster advanced without us (out-of-band writer).
			e.dirty = true
		} else {
			if len(e.stamps) >= maxStamps {
				for evict := range e.stamps {
					delete(e.stamps, evict)
					break
				}
			}
			e.stamps[req.Client] = stamp{epoch: resp.Epoch, state: e.state}
			e.harvestVrootLocked(resp)
			if cacheable(req) {
				e.admitLocked(req, resp, issueState)
			}
		}
	}
	e.mu.Unlock()
	// The caller owns resp. When the upstream pools responses the edge must
	// not release this one — only copies were taken above.
	return resp, nil
}

// harvestVrootLocked captures the current virtual-root rep from a forwarded
// response that shipped index, pinning it to the current edge state. Called
// only under the same gate that refreshes client stamps (state unchanged
// across the round trip, no inflight updates, no pending sync evidence), so
// the rep describes the same stable upstream state the stamps do.
func (e *Edge) harvestVrootLocked(resp *wire.Response) {
	if e.vrootOK && e.vrootState == e.state {
		return
	}
	n := len(resp.Index)
	if n == 0 || resp.Index[n-1].ID != resp.RootID {
		return
	}
	src := &resp.Index[n-1]
	e.vroot = wire.NodeRep{
		ID:    src.ID,
		Level: src.Level,
		Elems: append([]wire.CutElem(nil), src.Elems...),
	}
	e.vrootMBR = resp.RootMBR
	e.vrootState = e.state
	e.vrootOK = true
}

// retainedSafeLocked re-checks a stripped entry against the *current*
// virtual-root children: the entry was admitted knowing only the shards it
// visited, and a shard root that has since grown into the query's reach
// (window overlap for range, contribution radius for kNN) could now hold
// results the cached response misses — without ever touching the entry's
// dependency set. Any current child the entry did not visit and cannot
// exclude geometrically forces a forward.
func (e *Edge) retainedSafeLocked(ent *entry) bool {
	for i := range e.vroot.Elems {
		el := &e.vroot.Elems[i]
		if el.Child == 0 {
			continue
		}
		if _, visited := ent.deps[el.Child]; visited {
			continue
		}
		switch ent.q.Kind {
		case query.Range:
			if ent.q.Window.Intersects(el.MBR) {
				return false
			}
		case query.KNN:
			if geom.MinDist(ent.q.Center, el.MBR) <= ent.rk {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// touchLocked files one cacheable arrival into the cell's hotness window,
// rolling the EWMA when the window fills.
func (e *Edge) touchLocked(cell int) {
	e.cells[cell].cur++
	e.reqCount++
	if e.reqCount >= e.cfg.Window {
		e.reqCount = 0
		for i := range e.cells {
			cs := &e.cells[i]
			cs.hot = hotAlpha*cs.cur + (1-hotAlpha)*cs.hot
			cs.cur = 0
		}
	}
}

// hotLocked is the cell's current demand estimate: the EWMA plus the
// still-accumulating window, so a flash crowd can cross the admission
// threshold mid-window instead of a full window late.
func (e *Edge) hotLocked(cell int) float64 {
	return e.cells[cell].hot + e.cells[cell].cur
}

// admitLocked materializes a forwarded response if its cell is hot enough,
// then enforces the byte budget.
func (e *Edge) admitLocked(req *wire.Request, resp *wire.Response, issueState uint64) {
	if issueState != e.state || e.inflight > 0 || e.dirty {
		return
	}
	cell := e.cellOf(req.Q)
	if e.hotLocked(cell) < e.cfg.AdmitThreshold {
		return
	}
	key := cacheKey(req.Q)
	if e.entries[key] != nil {
		return
	}
	ent := &entry{
		key:     key,
		cell:    cell,
		objects: append([]wire.ObjectRep(nil), resp.Objects...),
		pairs:   append([][2]rtree.ObjectID(nil), resp.Pairs...),
		index:   copyIndex(resp.Index),
		k:       resp.K,
		rootID:  resp.RootID,
		rootMBR: resp.RootMBR,
		q:       req.Q,
		deps:    make(map[rtree.NodeID]struct{}, len(resp.Index)),
		objDeps: make(map[rtree.ObjectID]struct{}, len(resp.Objects)),
	}
	// Strip the virtual-root rep (the router appends it last): its content
	// changes with every shard-root move while its id never does, so keeping
	// it — in the payload or the dependency set — would tie the entry's life
	// to the whole cluster instead of the nodes it actually visited. The
	// current rep is substituted back at serve time.
	if n := len(ent.index); n > 0 && ent.index[n-1].ID == ent.rootID {
		ent.index = ent.index[:n-1]
		ent.stripped = true
		if req.Q.Kind == query.KNN {
			ent.rk = math.Inf(1)
			if req.Q.K > 0 && len(ent.objects) >= req.Q.K {
				ent.rk = 0
				for i := range ent.objects {
					if d := geom.MinDist(req.Q.Center, ent.objects[i].MBR); d > ent.rk {
						ent.rk = d
					}
				}
			}
		}
	}
	for i := range ent.index {
		ent.deps[ent.index[i].ID] = struct{}{}
	}
	for i := range ent.objects {
		ent.objDeps[ent.objects[i].ID] = struct{}{}
	}
	ent.bytes = wire.DefaultSizeModel().ResponseBytes(resp)
	e.entries[key] = ent
	ent.elem = e.cells[cell].lru.PushBack(ent)
	e.bytes += ent.bytes
	e.stats.Admissions.Add(1)
	e.stats.Bytes.Store(int64(e.bytes))
	e.stats.Entries.Store(int64(len(e.entries)))
	e.evictLocked()
}

// evictLocked enforces the byte budget: while over, drop the LRU entry of
// the coldest cell that still holds entries.
func (e *Edge) evictLocked() {
	for e.bytes > e.cfg.ByteBudget {
		victim := -1
		var coldest float64
		for i := range e.cells {
			if e.cells[i].lru.Len() == 0 {
				continue
			}
			h := e.hotLocked(i)
			if victim < 0 || h < coldest {
				victim, coldest = i, h
			}
		}
		if victim < 0 {
			return
		}
		ent := e.cells[victim].lru.Front().Value.(*entry)
		e.dropLocked(ent)
		e.stats.Evictions.Add(1)
	}
}

func (e *Edge) dropLocked(ent *entry) {
	delete(e.entries, ent.key)
	e.cells[ent.cell].lru.Remove(ent.elem)
	e.bytes -= ent.bytes
	e.stats.Bytes.Store(int64(e.bytes))
	e.stats.Entries.Store(int64(len(e.entries)))
}

func (e *Edge) taintLocked(id wire.ClientID) {
	if _, ok := e.tainted[id]; ok {
		return
	}
	if len(e.tainted) >= maxStamps {
		for evict := range e.tainted {
			delete(e.tainted, evict)
			break
		}
	}
	e.tainted[id] = struct{}{}
	delete(e.stamps, id)
}

// roundTripUpdate relays an update batch and absorbs its consequences
// before releasing the ack: the upstream applies updates synchronously with
// snapshot publish, so once the ack is out, every later direct query sees
// the new epoch — the edge must already have dropped what the batch
// touched. The ack itself carries everything needed: router update acks
// deliver the client's full crossing invalidation window (the single-node
// ExecuteUpdates contract, catalog-ing even shards the batch never touched),
// a superset of this batch's changes, so the edge applies it inline instead
// of paying a second serialized catalog round trip per update. While any
// update is in flight, hits and admissions pause.
func (e *Edge) roundTripUpdate(req *wire.Request) (*wire.Response, error) {
	e.mu.Lock()
	e.inflight++
	e.mu.Unlock()
	e.stats.Forwards.Add(1)
	e.stats.Updates.Add(1)

	resp, err := e.cfg.Upstream.RoundTrip(req)
	e.mu.Lock()
	if err != nil {
		e.dirty = true // upstream state unknown; re-sync before any hit
		e.inflight--
		e.mu.Unlock()
		return nil, err
	}
	e.applyAckLocked(req, resp)
	e.inflight--
	e.mu.Unlock()
	return resp, nil
}

// applyAckLocked applies the invalidation window piggybacked on a relayed
// update's ack. In sole-ingress deployments this keeps the subscription
// exact with zero extra round trips: every change flows through here, and
// each ack's crossing window covers at least its own batch. Changes by
// out-of-band writers are not swept here (the updating client may already
// have been delivered them directly) — those remain covered by the
// stamped-client epoch-mismatch evidence and the SyncInterval floor, as
// before. The edge's own catalog epoch is left untouched; a later
// evidence-driven sync may redeliver already-applied ids, and redundant
// drops are safe.
func (e *Edge) applyAckLocked(req *wire.Request, resp *wire.Response) {
	_, bad := e.tainted[req.Client]
	switch {
	case resp.FlushAll:
		// Log horizon or failover: drop everything and force a real catalog
		// sync to rebase the edge's own subscription epoch.
		for _, ent := range e.entriesList() {
			e.dropLocked(ent)
		}
		e.stats.Flushes.Add(1)
		e.state++
		delete(e.stamps, req.Client)
		e.dirty = true
	case len(resp.InvalidNodes) > 0 || len(resp.InvalidObjs) > 0:
		for _, ent := range e.entriesList() {
			if ent.hitBy(resp.InvalidNodes, resp.InvalidObjs) {
				e.dropLocked(ent)
				e.stats.Invalidations.Add(1)
			}
		}
		e.state++
		// The updating client was just delivered this exact window: it is
		// fully current under the new state and may hit immediately.
		if !bad {
			e.stamps[req.Client] = stamp{epoch: resp.Epoch, state: e.state}
		}
	default:
		// Every op was a no-op (nothing applied, empty window): the world
		// did not move, stamps stay valid.
		if !bad {
			e.stamps[req.Client] = stamp{epoch: resp.Epoch, state: e.state}
		}
	}
}

// sync issues one catalog round trip under the edge's client id and applies
// the delivered invalidation window: targeted drops for entries whose
// dependency set intersects it, a full flush on FlushAll, and a state bump
// whenever anything changed (staling every client stamp, so each client is
// forwarded once to pick up its own window before hitting again).
func (e *Edge) sync(force bool) error {
	e.syncMu.Lock()
	defer e.syncMu.Unlock()

	e.mu.Lock()
	if !force && !e.needSyncLocked() {
		// A racing sibling already synced while this caller waited.
		e.mu.Unlock()
		return nil
	}
	base := e.epoch
	e.mu.Unlock()

	e.stats.Syncs.Add(1)
	resp, err := e.cfg.Upstream.RoundTrip(&wire.Request{
		Client:  EdgeClientID,
		Catalog: true,
		Epoch:   base,
	})
	if err != nil {
		e.mu.Lock()
		e.dirty = true
		e.mu.Unlock()
		return err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.releaseUpstream(resp)
	e.lastSync = time.Now()
	switch {
	case resp.FlushAll:
		for _, ent := range e.entriesList() {
			e.dropLocked(ent)
		}
		e.stats.Flushes.Add(1)
		e.state++
		e.epoch = resp.Epoch
		e.dirty = false
	case resp.Epoch != base || len(resp.InvalidNodes) > 0 || len(resp.InvalidObjs) > 0:
		for _, ent := range e.entriesList() {
			if ent.hitBy(resp.InvalidNodes, resp.InvalidObjs) {
				e.dropLocked(ent)
				e.stats.Invalidations.Add(1)
			}
		}
		e.state++
		e.epoch = resp.Epoch
		e.dirty = false
	default:
		// Nothing changed upstream; the evidence was a false alarm (e.g. a
		// racing sibling already absorbed it). Stamps stay valid.
		e.dirty = false
	}
	return nil
}

// Repartition rebinds the edge's hotness cells to a new KD partition after
// an elastic split or merge. Cell indices are router slots and slots are
// never renumbered, so surviving cells keep their hotness history and fresh
// slots start cold. Entries whose query now locates to a different cell were
// admitted under a cut that no longer exists — a split moved part of their
// cell's region to a new shard — so they are dropped and must re-earn
// admission under the new topology. Retained entries stay safe through the
// usual machinery: the topology change's crossing window (split) or FlushAll
// (merge) arrives on the next catalog sync, which the dirty mark forces.
func (e *Edge) Repartition(locate func(geom.Point) int, cells int) error {
	if locate == nil || cells <= 0 {
		return errors.New("edge: Repartition needs a locate function and a positive cell count")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg.Locate = locate
	for len(e.cells) < cells {
		e.cells = append(e.cells, cellState{lru: list.New()})
	}
	for _, ent := range e.entriesList() {
		if e.cellOf(ent.q) != ent.cell {
			e.dropLocked(ent)
			e.stats.Invalidations.Add(1)
		}
	}
	e.dirty = true
	return nil
}

// entriesList snapshots the entry set so drops during iteration are safe.
func (e *Edge) entriesList() []*entry {
	out := make([]*entry, 0, len(e.entries))
	for _, ent := range e.entries {
		out = append(out, ent)
	}
	return out
}

// hitBy reports whether an invalidation window touches the entry's
// dependency set. An update changing this query's result set touches some
// visited node's entries (its lowest MBR-stable ancestor at the latest),
// putting that node id in the window; object removals are caught by the
// object ids directly. The one ancestor a stripped entry does not track is
// the virtual root itself — an update entirely inside a shard the entry
// never visited surfaces only there — which is why stripped hits also pass
// retainedSafeLocked against the current vroot children.
func (ent *entry) hitBy(nodes []rtree.NodeID, objs []rtree.ObjectID) bool {
	for _, id := range nodes {
		if _, ok := ent.deps[id]; ok {
			return true
		}
	}
	for _, id := range objs {
		if _, ok := ent.objDeps[id]; ok {
			return true
		}
	}
	return false
}

// copyIndex deep-copies a shipped supporting index (CutElems are value
// types; bpt codes are immutable strings).
func copyIndex(src []wire.NodeRep) []wire.NodeRep {
	if src == nil {
		return nil
	}
	out := make([]wire.NodeRep, len(src))
	for i := range src {
		out[i] = src[i]
		out[i].Elems = append([]wire.CutElem(nil), src[i].Elems...)
	}
	return out
}
