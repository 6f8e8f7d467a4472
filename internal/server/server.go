// Package server implements the mobile application server of the proactive
// caching architecture (Figure 3): it resumes remainder queries from the
// client's handed-over priority queue, and ships back the remainder results
// Rr together with the supporting index Ir in full, normal-compact, or
// d+-level compact form (the adaptive scheme of Section 4.3).
package server

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bpt"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// IndexForm selects how the supporting index is represented on the wire.
type IndexForm uint8

const (
	// FullForm ships every accessed node with all its entries (FPRO).
	FullForm IndexForm = iota + 1
	// CompactForm ships the normal compact form CF(n, Qr) (CPRO).
	CompactForm
	// AdaptiveForm ships the d+-level compact form with a per-client d
	// driven by false-miss-rate feedback (APRO).
	AdaptiveForm
)

// Config parameterizes a server.
type Config struct {
	// Form selects the supporting-index representation. Default AdaptiveForm.
	Form IndexForm
	// Sensitivity is the adaptive scheme's s parameter (relative fmr change
	// that triggers a d adjustment). Default 0.20 (Table 6.1).
	Sensitivity float64
	// InitialD is the starting refinement level for adaptive clients.
	InitialD int
	// MaxD caps the refinement level. Default 12.
	MaxD int
	// UpdateLogLimit bounds the invalidation log; clients whose epoch falls
	// off the horizon are told to flush. Default 4096 update records.
	UpdateLogLimit int

	// WAL, when set, makes the server durable: the writer goroutine appends
	// every applied batch to it *before* publishing the batch's snapshot
	// (group commit — one append+sync per coalesced batch, never on the
	// query path) and checkpoints through it when it asks. internal/wal
	// satisfies this structurally; the server does not import it. An append
	// failure latches DurabilityErr and disables further logging rather
	// than failing updates — availability over durability, loudly.
	WAL BatchLog
	// OnApplied, when set, observes every applied batch after its snapshot
	// is published and the waiters acked — the replication stream tap.
	// Called on the writer goroutine; ops is valid only during the call.
	OnApplied func(epochBefore uint64, ops []wire.UpdateOp)
}

func (c Config) normalized() Config {
	if c.Form == 0 {
		c.Form = AdaptiveForm
	}
	if c.Sensitivity <= 0 {
		c.Sensitivity = 0.20
	}
	if c.MaxD <= 0 {
		c.MaxD = 12
	}
	if c.InitialD < 0 {
		c.InitialD = 0
	}
	if c.InitialD > c.MaxD {
		c.InitialD = c.MaxD
	}
	if c.UpdateLogLimit <= 0 {
		c.UpdateLogLimit = 4096
	}
	return c
}

// ObjectSizer reports the payload size in bytes of each data object.
type ObjectSizer func(rtree.ObjectID) int

// ExecInfo reports per-request processing statistics (the basis of the
// server-CPU observations in Section 6.4).
type ExecInfo struct {
	Engine       query.Stats
	VisitedNodes int
	D            int // refinement level used for this client
}

// clientShardCount is the number of independently locked shards the
// per-client adaptive state is spread over. Concurrent requests from
// different clients contend only when their ids hash to the same shard.
const clientShardCount = 32

// clientShard is one lock domain of the per-client state map.
type clientShard struct {
	mu sync.Mutex
	m  map[wire.ClientID]*clientState
}

// Server owns the R*-tree, its partition-tree page table, and per-client
// adaptive state.
//
// A Server is safe for concurrent use, and queries never lock the index:
// Execute loads the currently published snapshot (one atomic load, see
// snapshot.go) and runs entirely against that immutable version, while all
// mutation — InsertObject, DeleteObject, MoveObject, ApplyUpdates — flows
// through a single writer goroutine that batches operations and publishes a
// fresh snapshot per batch. Mutators block until their batch is published
// (read-your-writes) but never stall queries.
// Per-client adaptive state lives in a sharded map so feedback from distinct
// clients never serializes on one lock.
type Server struct {
	// cur is the published snapshot queries load. Only the writer stores it.
	cur    atomic.Pointer[snapshot]
	cfg    Config
	shards [clientShardCount]clientShard

	// baseSizes reports build-time object sizes; objects inserted after the
	// build overlay it through extraSizes (lock-free reads, writer stores).
	// hasExtras gates the overlay lookup so the common no-insert deployment
	// never pays the sync.Map key boxing on the hot path.
	baseSizes  ObjectSizer
	extraSizes sync.Map // rtree.ObjectID -> int
	hasExtras  atomic.Bool

	// execPool recycles per-request execution state (provider, engine
	// runner, scratch sets); resps recycles responses returned to the
	// server through ReleaseResponse. Both make a warm Execute effectively
	// allocation-free.
	execPool sync.Pool
	resps    wire.ResponsePool

	// Writer lifecycle (see snapshot.go): started lazily on first update,
	// stopped by Close.
	wmu    sync.Mutex
	wr     *writer
	closed bool

	// durErr latches the first WAL failure (durable.go); once set the
	// writer stops logging and DurabilityErr reports it.
	durErr atomic.Pointer[walFailure]
}

// clientState is the adaptive refinement state of one client, guarded by its
// shard's mutex.
type clientState struct {
	d       int
	lastFMR float64
	hasLast bool
}

// New constructs a server over an existing index. Ownership of the tree
// transfers to the server: it is the first published version, whose pages
// every later version shares until it rewrites them, so the caller must not
// mutate it (use View for access to the live index).
func New(tree *rtree.Tree, sizes ObjectSizer, cfg Config) *Server {
	s := newServer(sizes, cfg)
	s.cur.Store(&snapshot{tree: tree, pages: rtree.Pack(tree)})
	return s
}

// newServer is the part of construction New and Restore share.
func newServer(sizes ObjectSizer, cfg Config) *Server {
	s := &Server{cfg: cfg.normalized(), baseSizes: sizes}
	for i := range s.shards {
		s.shards[i].m = make(map[wire.ClientID]*clientState)
	}
	return s
}

// sizeOf reports an object's payload size, preferring the post-build overlay.
func (s *Server) sizeOf(id rtree.ObjectID) int {
	if s.hasExtras.Load() {
		if sz, ok := s.extraSizes.Load(id); ok {
			return sz.(int)
		}
	}
	return s.baseSizes(id)
}

// Tree exposes the currently published index version, which callers must
// treat as read-only. It never changes; updates publish a new version. Prefer
// View when the epoch the version belongs to matters.
func (s *Server) Tree() *rtree.Tree { return s.cur.Load().tree }

// RootRef returns the reference query processing starts from; clients use it
// as their catalog entry for the index root.
func (s *Server) RootRef() query.Ref {
	return rootRef(s.cur.Load())
}

// rootRef builds the root reference of a snapshot.
func rootRef(v *snapshot) query.Ref {
	return query.FromEntry(v.tree.RootEntry())
}

// shard returns the lock domain owning a client's state.
func (s *Server) shard(id wire.ClientID) *clientShard {
	return &s.shards[uint32(id)%clientShardCount]
}

// ClientD returns the current adaptive refinement level for a client.
func (s *Server) ClientD(id wire.ClientID) int {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stateLocked(id, s.cfg.InitialD).d
}

// stateLocked returns (creating if needed) a client's state. The shard's
// mutex must be held.
func (sh *clientShard) stateLocked(id wire.ClientID, initialD int) *clientState {
	st, ok := sh.m[id]
	if !ok {
		st = &clientState{d: initialD}
		sh.m[id] = st
	}
	return st
}

// feedbackAndD folds the request's false-miss-rate feedback (if any) into
// the client's adaptive state and returns the refinement level to use for
// this request. All clientState access happens under the shard lock here,
// so concurrent requests from the same client serialize only on this small
// critical section, never on query execution.
func (s *Server) feedbackAndD(req *wire.Request) int {
	sh := s.shard(req.Client)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.stateLocked(req.Client, s.cfg.InitialD)
	if req.HasFMR {
		s.applyFeedback(st, req.FMR)
	}
	return st.d
}

// applyFeedback implements the adaptive rule of Section 4.3: a false-miss
// rate more than s percent above the last reported one means the cached
// index is too coarse (raise d); more than s percent below means it is
// finer than needed (lower d). The caller must hold the state's shard lock.
func (s *Server) applyFeedback(st *clientState, fmr float64) {
	if !st.hasLast {
		st.lastFMR, st.hasLast = fmr, true
		return
	}
	switch {
	case fmr > st.lastFMR*(1+s.cfg.Sensitivity):
		if st.d < s.cfg.MaxD {
			st.d++
		}
	case fmr < st.lastFMR*(1-s.cfg.Sensitivity):
		if st.d > 0 {
			st.d--
		}
	}
	st.lastFMR = fmr
}

// execState is the pooled per-request execution state: the query provider,
// the engine runner, and every scratch structure Execute needs. A warm state
// serves a request without allocating. States are owned by exactly one
// request at a time (sync.Pool) and never shared.
type execState struct {
	prov     provider
	runner   query.Runner
	seen     map[rtree.ObjectID]bool // result dedup
	noPay    map[rtree.ObjectID]bool // objects whose payload the client holds
	seenN    map[rtree.NodeID]bool   // invalidation-report node dedup
	seenO    map[rtree.ObjectID]bool // invalidation-report object dedup
	seed     []query.QueuedElem      // rekeyed / root-seeded queue
	nodesBuf []*rtree.Node           // buildIndex ordering scratch
}

// scratchMapLimit bounds retained scratch-set capacity: a pathological
// request (huge CachedIDs list, giant result set) must not pin its buckets
// in the pool forever.
const scratchMapLimit = 4096

// ResetScratchMap empties a pooled scratch set for reuse, or replaces it
// with a fresh one when it is nil or grew past scratchMapLimit. The
// cluster router's pooled route state uses it too.
func ResetScratchMap[K comparable](m map[K]bool) map[K]bool {
	if m == nil || len(m) > scratchMapLimit {
		return make(map[K]bool)
	}
	clear(m)
	return m
}

// getExec borrows a request state from the pool, bound to snapshot v.
// forQuery resets the provider and query scratch (the visited bitset is
// sized to v's id span); catalog and update requests skip that and only use
// the invalidation scratch.
func (s *Server) getExec(v *snapshot, partitioned, forQuery bool) *execState {
	st, _ := s.execPool.Get().(*execState)
	if st == nil {
		st = &execState{}
	}
	if forQuery {
		st.prov.reset(v, partitioned)
		st.seen = ResetScratchMap(st.seen)
		st.noPay = ResetScratchMap(st.noPay)
		st.seed = st.seed[:0]
		st.nodesBuf = st.nodesBuf[:0]
	}
	st.seenN = ResetScratchMap(st.seenN)
	st.seenO = ResetScratchMap(st.seenO)
	return st
}

func (s *Server) putExec(st *execState) {
	st.runner.Reset() // drop element refs now rather than at next borrow
	// A pooled state must not keep a superseded tree version from the
	// garbage collector. Clear the node buffer's full capacity: this request
	// may have used fewer slots than an earlier one.
	clear(st.nodesBuf[:cap(st.nodesBuf)])
	st.prov.tree, st.prov.pages = nil, nil
	s.execPool.Put(st)
}

// ReleaseResponse returns a response obtained from Execute to the server's
// response pool, retaining its backing slices (including per-NodeRep element
// arrays) for the next request. Callers that release must not touch the
// response afterwards; callers that do not release (in-process simulations
// that integrate the response into a cache) simply leave it to the garbage
// collector. The serving layer releases after encoding a response to the
// wire.
func (s *Server) ReleaseResponse(resp *wire.Response) { s.resps.Put(resp) }

// Execute processes one request and builds the response. It is safe to call
// from many goroutines at once and takes no lock on the index: it loads the
// currently published snapshot (one atomic load) and runs entirely against
// that immutable version, so neither other queries nor a sustained update
// stream can stall it.
//
// The returned response may be recycled via ReleaseResponse once the caller
// is done with it; see there for the ownership contract.
func (s *Server) Execute(req *wire.Request) (*wire.Response, ExecInfo) {
	d := s.feedbackAndD(req)
	v := s.cur.Load()

	if req.Catalog {
		st := s.getExec(v, false, false)
		defer s.putExec(st)
		root := rootRef(v)
		resp := s.resps.Get()
		resp.RootID, resp.RootMBR = root.Node, root.MBR
		attachInvalidations(v, st, req, resp)
		return resp, ExecInfo{D: d}
	}

	partitioned := s.cfg.Form != FullForm && !req.NoIndex
	st := s.getExec(v, partitioned, true)
	defer s.putExec(st)

	resp := s.resps.Get()
	resp.K = req.Q.K
	info := ExecInfo{D: d}

	// Objects the client already holds: no payload bytes for those.
	for _, id := range req.CachedIDs {
		st.noPay[id] = true
	}
	for _, qe := range req.H {
		if qe.Deferred && qe.Elem.IsObjectElem() && !qe.Elem.Pair {
			st.noPay[qe.Elem.A.Obj] = true
		}
	}

	switch {
	case len(req.SemWindows) > 0 && req.Q.Kind == query.Range:
		// Semantic-caching remainder: union of trimmed windows.
		for _, w := range req.SemWindows {
			q := query.NewRange(w)
			st.seed = query.AppendSeedRoot(st.seed[:0], q, rootRef(v))
			out := st.runner.Run(q, &st.prov, st.seed)
			info.Engine.Add(out.Stats)
			for _, r := range out.Results {
				if !st.seen[r.Obj] {
					st.seen[r.Obj] = true
					resp.Objects = append(resp.Objects, s.objectRep(r, st.noPay))
				}
			}
		}
	default:
		seed := req.H
		if len(seed) == 0 {
			st.seed = query.AppendSeedRoot(st.seed[:0], req.Q, rootRef(v))
			seed = st.seed
		} else {
			st.seed = appendRekeyed(st.seed[:0], req.Q, seed)
			seed = st.seed
		}
		// Bound is cluster shard-routing metadata: a router that already
		// holds k candidates tells the shard the global k-th-best distance,
		// so the sub-query stops descending past it.
		out := st.runner.RunBounded(req.Q, &st.prov, seed, req.Bound)
		info.Engine = out.Stats
		for _, r := range out.Results {
			if !st.seen[r.Obj] {
				st.seen[r.Obj] = true
				resp.Objects = append(resp.Objects, s.objectRep(r, st.noPay))
			}
		}
		for _, p := range out.Pairs {
			resp.Pairs = append(resp.Pairs, [2]rtree.ObjectID{p[0].Obj, p[1].Obj})
			for _, r := range p {
				if !st.seen[r.Obj] {
					st.seen[r.Obj] = true
					resp.Objects = append(resp.Objects, s.objectRep(r, st.noPay))
				}
			}
		}
	}

	if !req.NoIndex {
		buildIndexInto(v, resp, st, s.cfg.Form, d)
	}
	root := rootRef(v)
	resp.RootID, resp.RootMBR = root.Node, root.MBR
	attachInvalidations(v, st, req, resp)
	info.VisitedNodes = st.prov.visitedCount
	return resp, info
}

func (s *Server) objectRep(r query.Ref, noPayload map[rtree.ObjectID]bool) wire.ObjectRep {
	return wire.ObjectRep{
		ID:      r.Obj,
		MBR:     r.MBR,
		Size:    s.sizeOf(r.Obj),
		Payload: !noPayload[r.Obj],
	}
}

// appendRekeyed recomputes priorities of handed-over elements from their
// MBRs (the client's keys are not trusted) and copies them, with deferred
// flags, into the request's seed buffer.
func appendRekeyed(dst []query.QueuedElem, q query.Query, h []query.QueuedElem) []query.QueuedElem {
	for _, qe := range h {
		var key float64
		if qe.Elem.Pair {
			key = q.PairKeyFor(qe.Elem.A.MBR, qe.Elem.B.MBR)
		} else {
			key = q.KeyFor(qe.Elem.A.MBR)
		}
		dst = append(dst, query.QueuedElem{Key: key, Elem: qe.Elem, Deferred: qe.Deferred})
	}
	return dst
}

// buildIndexInto assembles Ir directly into resp.Index: one representation
// per node the remainder query accessed, parents before children, in the
// configured form, all against the pinned snapshot. Reps and their element
// slices reuse the pooled response's capacity.
func buildIndexInto(v *snapshot, resp *wire.Response, st *execState, form IndexForm, d int) {
	p := &st.prov
	nodes := st.nodesBuf
	for _, id := range p.visited {
		if n, ok := v.tree.Node(id); ok {
			nodes = append(nodes, n)
		}
	}
	st.nodesBuf = nodes
	slices.SortStableFunc(nodes, func(a, b *rtree.Node) int { return cmp.Compare(b.Level, a.Level) })

	reps := resp.Index
	for _, n := range nodes {
		if len(n.Entries) == 0 {
			continue
		}

		// Extend reps in place so a recycled NodeRep's element array is
		// reused instead of reallocated.
		if len(reps) < cap(reps) {
			reps = reps[:len(reps)+1]
		} else {
			reps = append(reps, wire.NodeRep{})
		}
		rep := &reps[len(reps)-1]
		rep.ID, rep.Level = n.ID, n.Level
		rep.Elems = appendPageCut(rep.Elems[:0], p.pages.Page(n), p.pexp[n.ID], form, d)
	}
	resp.Index = reps
}

// appendPageCut emits one node's shipped representation from its packed
// page: the frontier of the expanded positions (bits; nil or root-unset
// collapses to the root cut), refined d further levels under AdaptiveForm, or
// every leaf under FullForm. The preorder walk yields lexicographic code
// order, so the cut needs no sorting.
func appendPageCut(dst []wire.CutElem, pg *rtree.Page, bits []uint64, form IndexForm, d int) []wire.CutElem {
	expandedBit := func(pos int32) bool {
		return bits != nil && bits[uint32(pos)>>6]&(1<<(uint32(pos)&63)) != 0
	}
	emit := func(pos int32) {
		elem := wire.CutElem{Code: bpt.Code(pg.Code(pos)), MBR: pg.Rect(pos)}
		if pg.IsLeaf(pos) {
			elem.Child = pg.ChildID(pos)
			elem.Obj = pg.ObjID(pos)
		} else {
			elem.Super = true
		}
		dst = append(dst, elem)
	}
	// descend emits the leaves at most depth levels below pos (the d+-level
	// refinement); depth 0 emits pos itself.
	var descend func(pos int32, depth int)
	descend = func(pos int32, depth int) {
		if pg.IsLeaf(pos) || depth == 0 {
			emit(pos)
			return
		}
		descend(pos+1, depth-1)
		descend(pg.Right(pos), depth-1)
	}
	var frontier func(pos int32)
	frontier = func(pos int32) {
		if !pg.IsLeaf(pos) && expandedBit(pos) {
			frontier(pos + 1)
			frontier(pg.Right(pos))
			return
		}
		if form == AdaptiveForm {
			descend(pos, d)
		} else {
			emit(pos)
		}
	}

	if form == FullForm {
		descend(0, pg.Len()) // depth bound > height: reaches all leaves
	} else {
		frontier(0) // root not expanded: the root alone (possibly refined)
	}
	return dst
}
