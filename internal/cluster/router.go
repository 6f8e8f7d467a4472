package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bpt"
	"repro/internal/geom"
	"repro/internal/idset"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// Shard is one member of the cluster as the router sees it: a transport to
// an in-process single-node server plus an optional response recycler.
// Passing the server's ReleaseResponse keeps the scatter-gather path
// allocation-free; a nil Release leaves responses to the garbage collector.
type Shard struct {
	T       wire.Transport
	Release func(*wire.Response)

	// Replica is an optional warm standby kept current by the primary's
	// replication stream. When the primary exceeds Config.FailThreshold
	// consecutive failures the router promotes the replica transparently;
	// because the standby may lag the primary's final acked batches, the
	// promotion flushes every tracked client (docs/DURABILITY.md).
	Replica        wire.Transport
	ReplicaRelease func(*wire.Response)

	// Redial rebinds to the shard's primary (a restarted process that
	// recovered from its WAL), returning its transport and recycler; the
	// returned Shard's Replica and Redial are ignored. Unlike promotion, a
	// successful redial does not flush clients: the recovered primary
	// answers stale epochs through its own invalidation protocol.
	Redial func() (Shard, error)
}

// endpoint is the live transport the router currently uses for one shard.
// Swapped atomically on failover; the release function rides along so
// responses recycle into the pool of the server that produced them. (A
// response released across a failover boundary may land in the wrong pool —
// harmless, responses carry no server-specific state.)
type endpoint struct {
	t       wire.Transport
	release func(*wire.Response)
	// replica marks a promoted standby: further failures try Redial to get
	// back to a recovered primary rather than promoting again.
	replica bool
}

// Config parameterizes a Router.
type Config struct {
	// Part maps rectangles to owning shards; required (updates and
	// handed-over object references route through it).
	Part *Partition
	// Sizer reports build-time payload sizes, used when a cross-shard move
	// re-inserts an object on its new owner. Objects inserted over the wire
	// are tracked automatically; nil means unknown sizes re-insert as 0.
	Sizer func(rtree.ObjectID) int
	// RetryAttempts is how many times a failed sub-query is re-sent (after
	// the initial attempt) before the error surfaces. Default 2; negative
	// disables retries.
	RetryAttempts int
	// RetryBackoff is the base delay between retry attempts, doubled per
	// attempt with jitter. Default 2ms.
	RetryBackoff time.Duration
	// FailThreshold is how many consecutive sub-query failures a shard
	// endpoint accrues before the router fails over (promoting the replica,
	// or redialing the primary). Default 3; negative disables failover.
	FailThreshold int
}

// shardMeta is the router's last-known view of one shard: its current root
// page and epoch, refreshed from every sub-response.
type shardMeta struct {
	mu        sync.Mutex
	rootID    rtree.NodeID
	rootMBR   geom.Rect
	rootLevel int
	epoch     uint64
}

// slot is one shard slot as the router sees it: the configured Shard, the
// live endpoint, the lock serializing failover decisions, the count of
// failures since the last success, and the last-known metadata. A slot
// retired by a merge stays in place: node ids are never reused.
type slot struct {
	shard     Shard
	ep        atomic.Pointer[endpoint]
	failMu    sync.Mutex
	consecErr atomic.Int32
	meta      shardMeta
}

// rootInfo is a lock-free copy of shardMeta taken per request.
type rootInfo struct {
	id    rtree.NodeID
	mbr   geom.Rect
	level int
	epoch uint64
}

// Router serves the whole wire protocol over N spatially partitioned
// shards: queries scatter to the shards that can contribute and gather into
// one merged response, updates route to the owning shard (re-partitioning
// cross-boundary moves), and shard-local node ids and epochs are re-keyed
// into the virtual namespace clients see (docs/CLUSTER.md). A Router is
// itself a wire.Transport, safe for any number of concurrent callers.
type Router struct {
	// topo fences the shard topology: every request holds it for read, and
	// an elastic cutover (SplitShard/MergeShards install phase) holds it for
	// write — which is exactly the "in-flight requests drain against the old
	// owner" semantics, since the write lock waits out every reader. slots
	// and part are mutated only under the write lock and therefore read
	// freely under the read lock.
	topo sync.RWMutex
	// topoOpMu serializes whole split/merge operations (each spans several
	// topo critical sections).
	topoOpMu sync.Mutex
	// ho is the live handover window of an in-progress split (elastic.go);
	// nil outside one. Written under topo write lock.
	ho *handoverState

	// slots are pointers so an elastic split can grow the slice without
	// copying lock-bearing values.
	slots     []*slot
	part      *Partition
	sizer     func(rtree.ObjectID) int
	stats     *metrics.ClusterStats
	retries   int
	backoff   time.Duration
	threshold int
	epochs    *epochTable

	// wireSizes tracks payload sizes of objects inserted through the
	// router, so cross-shard re-insertion preserves them.
	wireSizes sync.Map // rtree.ObjectID -> int

	// vroot caches the synthesized virtual-root representation, rebuilt
	// when any shard root changes.
	vmu       sync.Mutex
	vrootOf   []rootInfo
	vrootRep  wire.NodeRep
	statePool sync.Pool
	resps     wire.ResponsePool
}

// New builds a router over the shards, cataloging each one to learn its
// root and epoch. The shard count must match cfg.Part.
func New(shards []Shard, cfg Config) (*Router, error) {
	if cfg.Part == nil {
		return nil, errors.New("cluster: Config.Part is required")
	}
	if len(shards) != cfg.Part.Shards() {
		return nil, fmt.Errorf("cluster: %d shards but partition has %d regions", len(shards), cfg.Part.Shards())
	}
	if len(shards) == 0 || len(shards) > MaxShards {
		return nil, fmt.Errorf("cluster: shard count %d outside [1, %d]", len(shards), MaxShards)
	}
	r := &Router{
		part:      cfg.Part,
		sizer:     cfg.Sizer,
		stats:     metrics.NewClusterStats(len(shards)),
		retries:   cfg.RetryAttempts,
		backoff:   cfg.RetryBackoff,
		threshold: cfg.FailThreshold,
		epochs:    newEpochTable(defaultEpochRing, defaultMaxClients),
	}
	if r.retries == 0 {
		r.retries = defaultRetryAttempts
	} else if r.retries < 0 {
		r.retries = 0
	}
	if r.backoff <= 0 {
		r.backoff = defaultRetryBackoff
	}
	if r.threshold == 0 {
		r.threshold = defaultFailThreshold
	} else if r.threshold < 0 {
		r.threshold = 1 << 30 // effectively never
	}
	for s, sh := range shards {
		// The initial catalog is all-or-nothing: failover machinery only
		// covers shards that were healthy at construction.
		if err := r.addSlot(sh); err != nil {
			return nil, fmt.Errorf("cluster: catalog shard %d: %w", s, err)
		}
	}
	return r, nil
}

// addSlot catalogs sh for its root and epoch and installs it as the next
// slot, serving through sh.T. New builds every slot through it; a split's
// cutover installs the spawned shard through it under the write fence.
func (r *Router) addSlot(sh Shard) error {
	resp, err := sh.T.RoundTrip(&wire.Request{Catalog: true})
	if err != nil {
		return err
	}
	sl := &slot{shard: sh}
	sl.ep.Store(&endpoint{t: sh.T, release: sh.Release})
	r.slots = append(r.slots, sl)
	r.stats.Grow(len(r.slots))
	r.observe(len(r.slots)-1, resp)
	r.release(len(r.slots)-1, resp)
	return nil
}

// retireSlot kills slot t after a merge: dead metadata (classification
// skips it, stale refs into it drop) and an endpoint that fails fast.
func (r *Router) retireSlot(t int) {
	sl := r.slots[t]
	sl.meta.mu.Lock()
	sl.meta.rootID = rtree.InvalidNode
	sl.meta.rootMBR = geom.Rect{}
	sl.meta.rootLevel = 0
	sl.meta.epoch = 0
	sl.meta.mu.Unlock()
	sl.ep.Store(&endpoint{t: retiredTransport{}})
}

const (
	defaultRetryAttempts = 2
	defaultRetryBackoff  = 2 * time.Millisecond
	defaultFailThreshold = 3
)

// Partition exposes the router's KD partition. An edge cache keys its
// hotness accounting by partition cell (Partition.Locate on the query
// center), so the tier in front of the router groups traffic exactly the
// way the router shards it. Partitions are immutable; an elastic topology
// change swaps in a fresh one, so callers see a consistent (if possibly
// stale) geometry.
func (r *Router) Partition() *Partition {
	r.topo.RLock()
	defer r.topo.RUnlock()
	return r.part
}

// Stats returns the router's live counters.
func (r *Router) Stats() *metrics.ClusterStats { return r.stats }

// Snapshot copies the router's counters and marks each shard whose server
// has latched a WAL failure (server.Server.DurabilityErr): such a shard
// keeps answering, so nothing else tells the operator that a restart would
// lose its acknowledged updates.
func (r *Router) Snapshot() metrics.ClusterSnapshot {
	snap := r.stats.Snapshot()
	r.topo.RLock()
	defer r.topo.RUnlock()
	for s, sl := range r.slots {
		d, ok := sl.ep.Load().t.(interface{ DurabilityErr() error })
		if ok && s < len(snap.PerShard) && d.DurabilityErr() != nil {
			snap.PerShard[s].WALLatched = true
		}
	}
	return snap
}

// Shards returns the shard slot count, dead slots included.
func (r *Router) Shards() int {
	r.topo.RLock()
	defer r.topo.RUnlock()
	return len(r.slots)
}

// LiveShards returns the ordinals of the slots that currently own a region.
func (r *Router) LiveShards() []int {
	r.topo.RLock()
	defer r.topo.RUnlock()
	return r.part.LiveShards()
}

// SiblingOf returns the slot sharing s's KD parent when both are leaves —
// the only pair MergeShards accepts.
func (r *Router) SiblingOf(s int) (int, bool) {
	r.topo.RLock()
	defer r.topo.RUnlock()
	return r.part.SiblingOf(s)
}

// observe folds a sub-response into the shard's last-known metadata.
func (r *Router) observe(s int, resp *wire.Response) {
	m := &r.slots[s].meta
	m.mu.Lock()
	if resp.Epoch > m.epoch {
		m.epoch = resp.Epoch
	}
	if resp.RootID != rtree.InvalidNode {
		m.rootID = resp.RootID
		m.rootMBR = resp.RootMBR
	}
	m.mu.Unlock()
}

// observeLevel records a shard root's level when its rep ships by.
func (r *Router) observeLevel(s int, level int) {
	m := &r.slots[s].meta
	m.mu.Lock()
	if level > m.rootLevel {
		m.rootLevel = level
	}
	m.mu.Unlock()
}

// release hands a sub-response back to its shard's pool, if it has one.
func (r *Router) release(s int, resp *wire.Response) {
	if resp == nil {
		return
	}
	if ep := r.slots[s].ep.Load(); ep.release != nil {
		ep.release(resp)
	}
}

// snapshotMeta copies every shard's metadata into the request state.
func (r *Router) snapshotMeta(st *routeState) {
	for s, sl := range r.slots {
		m := &sl.meta
		m.mu.Lock()
		st.meta[s] = rootInfo{id: m.rootID, mbr: m.rootMBR, level: m.rootLevel, epoch: m.epoch}
		m.mu.Unlock()
	}
}

// sizeOf reports an object's payload size for cross-shard re-insertion.
func (r *Router) sizeOf(id rtree.ObjectID) int {
	if sz, ok := r.wireSizes.Load(id); ok {
		return sz.(int)
	}
	if r.sizer != nil {
		return r.sizer(id)
	}
	return 0
}

// waveItem is one shard sub-request of the current scatter wave.
type waveItem struct {
	shard   int
	req     wire.Request
	resp    *wire.Response
	err     error
	reissue bool
	// task links a join band scan back to its cross task (-1 for primary
	// sub-queries); side is which end of the task it collects.
	task int
	side int
}

// crossTask is one cross-shard join candidate scan: objects beneath ref a
// on shard sa are paired against objects beneath ref b on shard sb.
type crossTask struct {
	sa, sb int
	a, b   query.Ref // shard-local refs (node, super, or root)
	candsA []wire.ObjectRep
	candsB []wire.ObjectRep
	haveA  bool
	haveB  bool
}

// routeState is the pooled per-request scratch of the router: sub-request
// buckets, merge buffers, epoch vectors. A warm state routes a single-shard
// query without allocating.
type routeState struct {
	nsh int

	baseVec    []uint64
	baseRoots  []rtree.NodeID
	newVec     []uint64
	newRoots   []rtree.NodeID
	queried    []bool
	flush      bool
	wantVroot  bool
	vrootStale bool   // a shard root's content changed in the client's window
	epochGen   uint64 // epoch-table generation when this request resolved its base

	meta []rootInfo

	subH     [][]query.QueuedElem
	selfSeed []bool
	minKey   []float64 // kNN: smallest handed-over key per shard

	wave []waveItem

	objs     []wire.ObjectRep // range/join: result objects in arrival order
	objKeys  []uint64         // mergeObjects' and sortPairs' sort keys
	sortBuf  []uint64         // sortKeys' second radix array
	knnLower []float64        // lower bound on this shard's unseen objects
	knnObjs  []wire.ObjectRep
	knnDists []float64

	cross []crossTask
	sideA []pairSide
	sideB []pairSide

	seenObj  idset.Set // kNN candidate dedup
	seenNode idset.Set // invalidation-report node dedup
	seenObjI idset.Set // invalidation-report object dedup
	seenPair idset.Set // join pairs, packed a<<32|b
}

func (r *Router) getState() *routeState {
	st, _ := r.statePool.Get().(*routeState)
	if st == nil {
		st = &routeState{}
	}
	n := len(r.slots)
	if st.nsh != n {
		st.nsh = n
		st.baseVec = make([]uint64, n)
		st.baseRoots = make([]rtree.NodeID, n)
		st.newVec = make([]uint64, n)
		st.newRoots = make([]rtree.NodeID, n)
		st.queried = make([]bool, n)
		st.meta = make([]rootInfo, n)
		st.subH = make([][]query.QueuedElem, n)
		st.selfSeed = make([]bool, n)
		st.minKey = make([]float64, n)
		st.knnLower = make([]float64, n)
	}
	for s := 0; s < n; s++ {
		st.queried[s] = false
		st.selfSeed[s] = false
		st.subH[s] = st.subH[s][:0]
	}
	st.flush = false
	st.wantVroot = false
	st.vrootStale = false
	st.wave = st.wave[:0]
	st.objs = st.objs[:0]
	st.knnObjs = st.knnObjs[:0]
	st.knnDists = st.knnDists[:0]
	st.cross = st.cross[:0]
	st.seenObj.Reset()
	st.seenNode.Reset()
	st.seenObjI.Reset()
	st.seenPair.Reset()
	return st
}

func (r *Router) putState(st *routeState) {
	// Sub-response pointers must not outlive the request.
	for i := range st.wave {
		st.wave[i].resp = nil
	}
	for i := range st.cross {
		st.cross[i].candsA = nil
		st.cross[i].candsB = nil
	}
	r.statePool.Put(st)
}

// ReleaseResponse recycles a response returned by RoundTrip, retaining its
// backing slices. The serving layer (wire.ServeConfig.Release) calls it
// after encoding; callers that keep the response simply never release it.
func (r *Router) ReleaseResponse(resp *wire.Response) { r.resps.Put(resp) }

// roundTripShard sends one sub-request through the shard's live endpoint,
// absorbing transient failures: each transport error is retried with
// jittered exponential backoff, and once the endpoint accrues
// Config.FailThreshold consecutive failures the router fails over — to the
// warm replica when one is configured (flushing all clients, since the
// standby may lag the dead primary's final batches), otherwise by redialing
// the primary (no flush: a recovered primary serves its own invalidation
// protocol). Safe for concurrent callers; one goroutine performs the swap
// while the rest retry against whatever endpoint is current.
func (r *Router) roundTripShard(s int, req *wire.Request) (*wire.Response, error) {
	sl := r.slots[s]
	var lastErr error
	budget := r.retries // attempts remaining after the current one
	for attempt := 0; ; attempt++ {
		ep := sl.ep.Load()
		resp, err := ep.t.RoundTrip(req)
		if err == nil {
			sl.consecErr.Store(0)
			return resp, nil
		}
		lastErr = err
		failedOver := false
		if int(sl.consecErr.Add(1)) >= r.threshold {
			failedOver = r.failover(s, ep)
			if failedOver && budget-attempt < 1 && attempt < r.retries+2*r.threshold {
				// The request that trips the threshold must still probe the
				// endpoint it just swapped in, or it fails on the very swap
				// that fixed the shard. The cap bounds pathological flapping.
				budget = attempt + 1
			}
		}
		if attempt >= budget {
			return nil, lastErr
		}
		r.stats.Shard(s).Retries.Add(1)
		if !failedOver {
			// A swapped endpoint is worth probing immediately; otherwise
			// give the shard a moment before the next attempt.
			time.Sleep(jitteredBackoff(r.backoff, attempt))
		}
	}
}

// jitteredBackoff doubles base per attempt and adds up to 50% jitter so
// concurrent sub-queries don't hammer a recovering shard in lockstep.
func jitteredBackoff(base time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d > 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	j := time.Duration(time.Now().UnixNano()) % (d/2 + 1)
	return d + j
}

// failover swaps the shard's endpoint after repeated failures. It returns
// true when the caller should retry immediately on a fresh endpoint (either
// this call swapped one in, or another goroutine already had).
func (r *Router) failover(s int, failed *endpoint) bool {
	sl := r.slots[s]
	sl.failMu.Lock()
	defer sl.failMu.Unlock()
	if sl.ep.Load() != failed {
		return true // a concurrent failover already replaced it
	}
	sh := &sl.shard
	if !failed.replica && sh.Replica != nil {
		// Promote the warm standby. It has applied every batch the
		// replication stream delivered, but batches acked by the primary in
		// its final moments may be lost — every tracked client is flushed so
		// nobody trusts invalidation windows that straddle the gap, and the
		// shard's observed epoch restarts from the replica's own counter.
		sl.ep.Store(&endpoint{t: sh.Replica, release: sh.ReplicaRelease, replica: true})
		sl.meta.mu.Lock()
		sl.meta.epoch = 0
		sl.meta.mu.Unlock()
		r.epochs.flushAll()
		r.stats.Shard(s).Failovers.Add(1)
		sl.consecErr.Store(0)
		return true
	}
	if sh.Redial != nil {
		nsh, err := sh.Redial()
		if err != nil {
			return false // primary still down; keep erroring until it returns
		}
		sl.ep.Store(&endpoint{t: nsh.T, release: nsh.Release})
		r.stats.Shard(s).Redials.Add(1)
		sl.consecErr.Store(0)
		return true
	}
	return false
}

// issueWave runs every item of a non-empty wave against its shard and
// returns the first sub-query error. items[0] runs on the calling goroutine,
// whose stack a serving worker has already grown; only the rest of a
// multi-shard wave gets goroutines of its own. During a split's handover
// window, update batches bound for the splitting shard serialize on the
// window lock and their acked operations are recorded in apply order, so the
// cutover can replay exactly the tail the transfer snapshot missed
// (elastic.go).
func (r *Router) issueWave(items []waveItem) error {
	run := func(it *waveItem) {
		r.stats.SubQueries.Add(1)
		r.stats.Shard(it.shard).SubQueries.Add(1)
		if it.reissue {
			r.stats.Reissues.Add(1)
		}
		if ho := r.ho; ho != nil && it.shard == ho.from && len(it.req.Updates) > 0 {
			ho.mu.Lock()
			it.resp, it.err = r.roundTripShard(it.shard, &it.req)
			if it.err == nil {
				ho.record(it.req.Updates, it.resp.UpdateResults)
			}
			ho.mu.Unlock()
		} else {
			it.resp, it.err = r.roundTripShard(it.shard, &it.req)
		}
		if it.err != nil {
			r.stats.Shard(it.shard).Errors.Add(1)
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(items); i++ {
		wg.Add(1)
		go func(it *waveItem) {
			defer wg.Done()
			run(it)
		}(&items[i])
	}
	run(&items[0])
	wg.Wait()
	for i := range items {
		if items[i].err != nil {
			// Free the responses that did arrive before bailing out.
			for j := range items {
				if items[j].err == nil && items[j].resp != nil {
					r.release(items[j].shard, items[j].resp)
					items[j].resp = nil
				}
			}
			return fmt.Errorf("cluster: shard %d: %w", items[i].shard, items[i].err)
		}
	}
	return nil
}

// loadEpochBase resolves the client's quoted virtual epoch into per-shard
// base epochs (st.baseVec) and the root set its cached virtual root
// reflects (st.baseRoots). Unknown epochs flush the client and rebase it on
// the current metadata, exactly like falling off the single-node update log.
func (r *Router) loadEpochBase(st *routeState, req *wire.Request) {
	st.epochGen = r.epochs.generation()
	if r.epochs.lookup(req.Client, req.Epoch, st.baseVec, st.baseRoots) {
		copy(st.newVec, st.baseVec)
		copy(st.newRoots, st.baseRoots)
		return
	}
	allZero := true
	for s := range st.meta {
		st.baseVec[s] = st.meta[s].epoch
		st.baseRoots[s] = st.meta[s].id
		if st.meta[s].epoch != 0 {
			allZero = false
		}
	}
	if !allZero || req.Epoch != 0 {
		st.flush = true
	}
	copy(st.newVec, st.baseVec)
	copy(st.newRoots, st.baseRoots)
}

// absorb merges one sub-response's consistency payload: shard metadata,
// epoch vector advancement, and the re-keyed invalidation report.
func (r *Router) absorb(st *routeState, s int, sub *wire.Response, resp *wire.Response) error {
	r.observe(s, sub)
	st.queried[s] = true
	if sub.Epoch > st.newVec[s] {
		st.newVec[s] = sub.Epoch
	}
	if sub.RootID != rtree.InvalidNode {
		st.newRoots[s] = sub.RootID
		// Refresh the request-local view too: the virtual-root rep this
		// response ships must reflect the same roots its epoch commit
		// claims, or a client could re-cache a stale root cut in the very
		// response that invalidated it — and never be told again.
		st.meta[s].id = sub.RootID
		st.meta[s].mbr = sub.RootMBR
	}
	if sub.FlushAll {
		st.flush = true
	}
	rootID := sub.RootID
	if rootID == rtree.InvalidNode {
		rootID = st.meta[s].id
	}
	for _, id := range sub.InvalidNodes {
		if id == rootID {
			// The shard root's content changed inside this client's window
			// (entries grew, shrank, or the root itself split): the cached
			// virtual-root cut carries that root's old MBR and could prune
			// the grown region, so it must be invalidated too.
			st.vrootStale = true
		}
		vid, ok := virtualNode(s, id)
		if !ok {
			return errVirtualSpace(s, id)
		}
		if st.seenNode.Add(uint64(vid)) {
			resp.InvalidNodes = append(resp.InvalidNodes, vid)
		}
	}
	for _, id := range sub.InvalidObjs {
		if st.seenObjI.Add(uint64(id)) {
			resp.InvalidObjs = append(resp.InvalidObjs, id)
		}
	}
	return nil
}

func errVirtualSpace(s int, id rtree.NodeID) error {
	return fmt.Errorf("cluster: shard %d node %d exceeds the virtual namespace (max %d)", s, id, MaxLocalNodes)
}

// mergeIndex re-keys one sub-response's supporting index into the merged
// response, reusing recycled NodeRep element storage.
func (r *Router) mergeIndex(st *routeState, s int, sub *wire.Response, resp *wire.Response) error {
	for i := range sub.Index {
		rep := &sub.Index[i]
		vid, ok := virtualNode(s, rep.ID)
		if !ok {
			return errVirtualSpace(s, rep.ID)
		}
		if rep.ID == st.meta[s].id && rep.Level > st.meta[s].level {
			st.meta[s].level = rep.Level
			r.observeLevel(s, rep.Level)
		}
		dst := extendReps(&resp.Index)
		dst.ID = vid
		dst.Level = rep.Level
		dst.Elems = dst.Elems[:0]
		for _, e := range rep.Elems {
			if e.Child != rtree.InvalidNode {
				vc, ok := virtualNode(s, e.Child)
				if !ok {
					return errVirtualSpace(s, e.Child)
				}
				e.Child = vc
			}
			dst.Elems = append(dst.Elems, e)
		}
	}
	return nil
}

// extendReps grows a NodeRep slice by one, reusing recycled capacity (and
// the recycled rep's element array) when available.
func extendReps(reps *[]wire.NodeRep) *wire.NodeRep {
	if len(*reps) < cap(*reps) {
		*reps = (*reps)[:len(*reps)+1]
	} else {
		*reps = append(*reps, wire.NodeRep{})
	}
	return &(*reps)[len(*reps)-1]
}

// appendVroot ships the synthesized virtual-root representation: one index
// node whose entries are the shard roots, re-keyed. Its partition tree is
// rebuilt only when a shard root changes, and the full cut is always
// shipped, so clients cache a complete, real-entry view of the root and
// never hold virtual-root super entries.
func (r *Router) appendVroot(st *routeState, resp *wire.Response) error {
	r.vmu.Lock()
	defer r.vmu.Unlock()
	stale := len(r.vrootOf) != st.nsh
	if !stale {
		for s := range st.meta {
			// Level participates: a cached rep whose level no longer tops
			// every shard root would break the parents-before-children
			// ordering of the merged index.
			if r.vrootOf[s].id != st.meta[s].id || r.vrootOf[s].mbr != st.meta[s].mbr ||
				r.vrootOf[s].level != st.meta[s].level {
				stale = true
				break
			}
		}
	}
	if stale {
		entries := make([]rtree.Entry, 0, st.nsh)
		maxLevel := 0
		for s := range st.meta {
			if st.meta[s].id == rtree.InvalidNode {
				continue
			}
			vid, ok := virtualNode(s, st.meta[s].id)
			if !ok {
				return errVirtualSpace(s, st.meta[s].id)
			}
			entries = append(entries, rtree.Entry{MBR: st.meta[s].mbr, Child: vid})
			if st.meta[s].level > maxLevel {
				maxLevel = st.meta[s].level
			}
		}
		rep := wire.NodeRep{ID: VirtualRoot, Level: maxLevel + 1}
		if len(entries) > 0 {
			// The full cut is the page's leaf positions in preorder, which
			// is code order.
			pg := bpt.Build(VirtualRoot, entries)
			for i := int32(0); i < int32(pg.Len()); i++ {
				if pg.IsLeaf(i) {
					rep.Elems = append(rep.Elems, wire.CutElem{
						Code:  bpt.Code(pg.Code(i)),
						MBR:   pg.Rect(i),
						Child: pg.ChildID(i),
					})
				}
			}
		}
		r.vrootOf = append(r.vrootOf[:0], st.meta...)
		r.vrootRep = rep
	}
	dst := extendReps(&resp.Index)
	dst.ID = r.vrootRep.ID
	dst.Level = r.vrootRep.Level
	dst.Elems = append(dst.Elems[:0], r.vrootRep.Elems...)
	return nil
}

// finishConsistency stamps the merged response with the virtual root
// descriptor, the virtual-root invalidation (when any shard root moved
// inside the client's window), the flush flag, and the committed virtual
// epoch.
func (r *Router) finishConsistency(st *routeState, req *wire.Request, resp *wire.Response) {
	rootChanged := false
	mbr := geom.Rect{}
	first := true
	for s := range st.meta {
		cur := st.newRoots[s]
		if cur != st.baseRoots[s] {
			rootChanged = true
		}
		if st.meta[s].id == rtree.InvalidNode {
			continue
		}
		if first {
			mbr = st.meta[s].mbr
			first = false
		} else {
			mbr = mbr.Union(st.meta[s].mbr)
		}
	}
	resp.RootID = VirtualRoot
	resp.RootMBR = mbr
	if (rootChanged || st.vrootStale) && !st.flush && st.seenNode.Add(uint64(VirtualRoot)) {
		resp.InvalidNodes = append(resp.InvalidNodes, VirtualRoot)
	}
	if st.flush {
		resp.FlushAll = true
		resp.InvalidNodes = resp.InvalidNodes[:0]
		resp.InvalidObjs = resp.InvalidObjs[:0]
		r.stats.Flushes.Add(1)
	}
	epoch, ok := r.epochs.commit(req.Client, req.Epoch, st.newVec, st.newRoots, st.epochGen)
	if !ok {
		// A replica promotion flushed the table while this request was in
		// flight: its base vector may describe epochs the promoted shard
		// never reached, so the commit was refused — flush the client and
		// let its next request rebase on post-failover state.
		if !resp.FlushAll {
			resp.FlushAll = true
			resp.InvalidNodes = resp.InvalidNodes[:0]
			resp.InvalidObjs = resp.InvalidObjs[:0]
			r.stats.Flushes.Add(1)
		}
		resp.Epoch = 0
		return
	}
	resp.Epoch = epoch
}

// RoundTrip implements wire.Transport over the cluster: updates route to
// their owning shards, catalogs fan to every shard, and queries scatter,
// gather, and merge (docs/CLUSTER.md). The whole request runs under the
// topology read fence, so an elastic cutover waits for it to drain and it
// never observes a half-installed shard set.
func (r *Router) RoundTrip(req *wire.Request) (*wire.Response, error) {
	r.topo.RLock()
	defer r.topo.RUnlock()
	r.stats.Requests.Add(1)
	if len(req.Updates) > 0 {
		return r.routeUpdates(req)
	}
	if req.Catalog {
		return r.routeCatalog(req)
	}
	return r.routeQuery(req)
}

// routeCatalog fans the catalog to every shard, delivering each shard's
// invalidation window — this is what makes a client Sync() cluster-wide.
func (r *Router) routeCatalog(req *wire.Request) (*wire.Response, error) {
	st := r.getState()
	defer r.putState(st)
	r.snapshotMeta(st)
	r.loadEpochBase(st, req)

	for s := range st.meta {
		if st.meta[s].id == rtree.InvalidNode {
			continue // slot retired by a merge; nothing to catalog
		}
		st.wave = append(st.wave, waveItem{shard: s, task: -1})
		it := &st.wave[len(st.wave)-1]
		it.req.Client = req.Client
		it.req.Catalog = true
		it.req.Epoch = st.baseVec[s]
	}
	resp := r.resps.Get()
	if err := r.gather(st, st.wave, resp, nil); err != nil {
		r.ReleaseResponse(resp)
		return nil, err
	}
	r.finishConsistency(st, req, resp)
	return resp, nil
}

// gather issues one wave and folds every sub-response into resp: its
// consistency payload through absorb, then each, when non-nil, for the
// caller's share of the merge. A sub-response is released as soon as it is
// folded; on an error the rest of the wave is released too.
func (r *Router) gather(st *routeState, wave []waveItem, resp *wire.Response, each func(it *waveItem) error) error {
	if len(wave) == 0 {
		return nil
	}
	if err := r.issueWave(wave); err != nil {
		return err
	}
	for i := range wave {
		it := &wave[i]
		err := r.absorb(st, it.shard, it.resp, resp)
		if err == nil && each != nil {
			err = each(it)
		}
		if err != nil {
			for j := i; j < len(wave); j++ {
				r.release(wave[j].shard, wave[j].resp)
				wave[j].resp = nil
			}
			return err
		}
		r.release(it.shard, it.resp)
		it.resp = nil
	}
	return nil
}
