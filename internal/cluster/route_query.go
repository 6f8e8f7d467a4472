package cluster

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// Query scatter-gather. A client query is classified into per-shard
// sub-queries — fresh queries seed the relevant shards from their own roots,
// remainder queries split the handed-over priority queue H by the shard each
// reference decodes to — then issued in waves, merged, and re-keyed into the
// virtual namespace. Range queries touch only shards whose root rectangle
// meets the window; kNN asks the nearest shard for the full k first and then
// probes only shards whose distance lower bound beats the k-th best, with
// that distance as their pruning bound; joins broadcast to overlapping
// shards and add boundary-band candidate scans for cross-shard pairs.

// pairSide is one resolved end of a handed-over join pair element.
type pairSide struct {
	shard    int
	ref      query.Ref
	portable bool // object reference: routable to any shard
}

func (r *Router) routeQuery(req *wire.Request) (*wire.Response, error) {
	st := r.getState()
	defer r.putState(st)
	r.snapshotMeta(st)
	r.loadEpochBase(st, req)

	if len(req.H) == 0 {
		r.classifyFresh(st, req)
	} else {
		r.classifyH(st, req)
	}

	resp := r.resps.Get()
	resp.K = req.Q.K
	var err error
	switch req.Q.Kind {
	case query.KNN:
		err = r.routeKNN(st, req, resp)
	case query.Join:
		err = r.routeJoin(st, req, resp)
	default: // Range and unknown kinds (which match nothing anywhere)
		err = r.routeRange(st, req, resp)
	}
	if err == nil && st.wantVroot && !req.NoIndex {
		err = r.appendVroot(st, resp)
	}
	if err != nil {
		r.ReleaseResponse(resp)
		return nil, err
	}
	if len(st.wave) == 1 {
		r.stats.SingleShard.Add(1)
	}
	// Parents before children: levels strictly decrease downward, and the
	// virtual root carries the highest level of all.
	slices.SortStableFunc(resp.Index, func(a, b wire.NodeRep) int {
		return cmp.Compare(b.Level, a.Level)
	})
	r.finishConsistency(st, req, resp)
	return resp, nil
}

// rangeRelevant reports whether a shard with the given root rectangle can
// contribute to a range request (window or semantic-remainder windows).
func rangeRelevant(mbr geom.Rect, req *wire.Request) bool {
	if len(req.SemWindows) > 0 {
		for _, w := range req.SemWindows {
			if w.Intersects(mbr) {
				return true
			}
		}
		return false
	}
	return req.Q.Window.Intersects(mbr)
}

// classifyFresh targets the shards a from-the-root query can touch.
func (r *Router) classifyFresh(st *routeState, req *wire.Request) {
	for s := range st.meta {
		if st.meta[s].id == rtree.InvalidNode {
			continue
		}
		switch req.Q.Kind {
		case query.KNN:
			st.selfSeed[s] = true
			st.minKey[s] = geom.MinDist(req.Q.Center, st.meta[s].mbr)
		case query.Join:
			if req.Q.JoinWindow.Intersects(st.meta[s].mbr) {
				st.selfSeed[s] = true
			}
		default:
			if rangeRelevant(st.meta[s].mbr, req) {
				st.selfSeed[s] = true
			}
		}
	}
	if req.Q.Kind == query.Join {
		for sa := range st.meta {
			if !st.selfSeed[sa] {
				continue
			}
			for sb := sa + 1; sb < st.nsh; sb++ {
				if !st.selfSeed[sb] {
					continue
				}
				r.addCrossTask(st, req,
					pairSide{shard: sa, ref: query.NodeRef(st.meta[sa].id, st.meta[sa].mbr)},
					pairSide{shard: sb, ref: query.NodeRef(st.meta[sb].id, st.meta[sb].mbr)})
			}
		}
	}
	for s := range st.meta {
		if st.selfSeed[s] {
			st.wantVroot = true
			break
		}
	}
}

// classifyH splits a handed-over priority queue by shard.
func (r *Router) classifyH(st *routeState, req *wire.Request) {
	for s := range st.minKey {
		st.minKey[s] = math.Inf(1)
	}
	for _, qe := range req.H {
		if qe.Elem.Pair {
			r.classifyPair(st, req, qe)
		} else {
			r.classifySingle(st, req, qe)
		}
	}
}

// appendSub adds one element to a shard's sub-queue, tracking the smallest
// kNN key handed to that shard.
func (st *routeState) appendSub(q query.Query, s int, qe query.QueuedElem) {
	st.subH[s] = append(st.subH[s], qe)
	if q.Kind == query.KNN {
		key := q.KeyFor(qe.Elem.A.MBR)
		if qe.Elem.Pair {
			key = q.PairKeyFor(qe.Elem.A.MBR, qe.Elem.B.MBR)
		}
		if key < st.minKey[s] {
			st.minKey[s] = key
		}
	}
}

// rootTargets reports the shards a virtual-root reference fans out to for
// this query kind.
func (r *Router) rootRelevant(st *routeState, req *wire.Request, s int) bool {
	if st.meta[s].id == rtree.InvalidNode {
		return false
	}
	switch req.Q.Kind {
	case query.KNN:
		return true
	case query.Join:
		return req.Q.JoinWindow.Intersects(st.meta[s].mbr)
	default:
		return rangeRelevant(st.meta[s].mbr, req)
	}
}

// classifySingle routes one non-pair element. Virtual-root references fan
// out to every relevant shard's own root; references outside the namespace
// are dropped, matching a single node's empty expansion of dangling refs.
func (r *Router) classifySingle(st *routeState, req *wire.Request, qe query.QueuedElem) {
	ref := qe.Elem.A
	switch {
	case ref.Kind == query.RefObject:
		s := r.part.LocateRect(ref.MBR)
		st.appendSub(req.Q, s, qe)
	case ref.Node == VirtualRoot:
		st.wantVroot = true
		for s := range st.meta {
			if r.rootRelevant(st, req, s) {
				st.appendSub(req.Q, s, query.QueuedElem{
					Elem: query.Single(query.NodeRef(st.meta[s].id, st.meta[s].mbr)),
				})
			}
		}
	default:
		if s, local, ok := splitVirtual(ref.Node, st.nsh); ok {
			if st.meta[s].id == rtree.InvalidNode {
				// The slot was merged away: its ids can never be expanded
				// again, so the ref drops like any dangling reference (the
				// client is being flushed in this same response — a merge
				// flushes the whole epoch table).
				return
			}
			lr := ref
			lr.Node = local
			st.appendSub(req.Q, s, query.QueuedElem{Elem: query.Single(lr), Deferred: qe.Deferred})
		}
	}
}

// pairSides resolves one end of a pair element into shard-local sides.
func (r *Router) pairSides(st *routeState, req *wire.Request, ref query.Ref, dst []pairSide) []pairSide {
	switch {
	case ref.Kind == query.RefObject:
		return append(dst, pairSide{shard: r.part.LocateRect(ref.MBR), ref: ref, portable: true})
	case ref.Node == VirtualRoot:
		st.wantVroot = true
		for s := range st.meta {
			if r.rootRelevant(st, req, s) {
				dst = append(dst, pairSide{shard: s, ref: query.NodeRef(st.meta[s].id, st.meta[s].mbr)})
			}
		}
		return dst
	default:
		if s, local, ok := splitVirtual(ref.Node, st.nsh); ok {
			if st.meta[s].id == rtree.InvalidNode {
				return dst // merged-away slot: dangling ref, drop
			}
			lr := ref
			lr.Node = local
			dst = append(dst, pairSide{shard: s, ref: lr})
		}
		return dst
	}
}

// classifyPair routes one join pair element: same-shard (or object-bearing)
// combinations become shard-local pairs, node pairs straddling two shards
// become cross-shard candidate scans.
func (r *Router) classifyPair(st *routeState, req *wire.Request, qe query.QueuedElem) {
	st.sideA = r.pairSides(st, req, qe.Elem.A, st.sideA[:0])
	st.sideB = r.pairSides(st, req, qe.Elem.B, st.sideB[:0])
	for _, a := range st.sideA {
		for _, b := range st.sideB {
			switch {
			case a.portable && b.portable:
				st.appendSub(req.Q, a.shard, query.QueuedElem{
					Elem: query.PairOf(a.ref, b.ref), Deferred: qe.Deferred,
				})
			case a.portable:
				st.appendSub(req.Q, b.shard, query.QueuedElem{
					Elem: query.PairOf(a.ref, b.ref), Deferred: qe.Deferred,
				})
			case b.portable || a.shard == b.shard:
				st.appendSub(req.Q, a.shard, query.QueuedElem{
					Elem: query.PairOf(a.ref, b.ref), Deferred: qe.Deferred,
				})
			default:
				r.addCrossTask(st, req, a, b)
			}
		}
	}
}

// addCrossTask records a deduplicated cross-shard candidate scan.
func (r *Router) addCrossTask(st *routeState, req *wire.Request, a, b pairSide) {
	if b.shard < a.shard {
		a, b = b, a
	}
	for _, t := range st.cross {
		if t.sa == a.shard && t.sb == b.shard && t.a.Same(a.ref) && t.b.Same(b.ref) {
			return
		}
	}
	st.cross = append(st.cross, crossTask{sa: a.shard, sb: b.shard, a: a.ref, b: b.ref})
	r.stats.CrossPairTasks.Add(1)
}

// primaryItems appends one wave item per targeted shard, carrying the
// shard's H split (or nothing, for root-seeded shards) plus the client's
// pass-through fields, then catalog piggybacks for every lagging shard the
// query skips.
func (st *routeState) primaryItems(req *wire.Request) {
	for s := 0; s < st.nsh; s++ {
		if !st.selfSeed[s] && len(st.subH[s]) == 0 {
			continue
		}
		st.wave = append(st.wave, waveItem{shard: s, task: -1})
		it := &st.wave[len(st.wave)-1]
		it.req = wire.Request{
			Client:     req.Client,
			Q:          req.Q,
			CachedIDs:  req.CachedIDs,
			SemWindows: req.SemWindows,
			NoIndex:    req.NoIndex,
			Epoch:      st.baseVec[s],
			FMR:        req.FMR,
			HasFMR:     req.HasFMR,
		}
		if !st.selfSeed[s] {
			it.req.H = st.subH[s]
		}
	}
	st.appendLagCatalogs(req, func(s int) bool { return st.selfSeed[s] || len(st.subH[s]) > 0 })
}

// appendLagCatalogs adds a catalog sub-request for every shard the request
// does not otherwise touch but whose known epoch is ahead of the client's
// coverage. A single-node response always carries the client's *full*
// invalidation window; without this, a client querying only one region
// could keep a stale cut of another shard forever — the stale cut prunes
// the region, so no query ever reaches the shard that would invalidate it.
// In the no-update steady state nothing lags, so the single-shard fast
// path is untouched.
func (st *routeState) appendLagCatalogs(req *wire.Request, targeted func(s int) bool) {
	for s := 0; s < st.nsh; s++ {
		if targeted(s) || st.meta[s].epoch <= st.baseVec[s] {
			continue
		}
		st.wave = append(st.wave, waveItem{shard: s, task: -1})
		it := &st.wave[len(st.wave)-1]
		it.req = wire.Request{Client: req.Client, Catalog: true, Epoch: st.baseVec[s]}
	}
}

// mergeObjects appends the gathered result objects (st.objs, in arrival
// order) to the merged response in id order, keeping the first arrival of an
// id reported twice: one word per object, id above arrival index, sorted
// stably on the id half, so the arrival half stays increasing within an id.
func (st *routeState) mergeObjects(resp *wire.Response) {
	keys := st.objKeys[:0]
	for i, o := range st.objs {
		keys = append(keys, uint64(o.ID)<<32|uint64(i))
	}
	keys = st.sortKeys(keys, 32)
	for i, k := range keys {
		if i == 0 || keys[i-1]>>32 != k>>32 {
			resp.Objects = append(resp.Objects, st.objs[uint32(k)])
		}
	}
	st.objKeys = keys
}

// routeRange scatters a range (or semantic-remainder) query to overlapping
// shards and merges object sets, sorted by id for determinism.
func (r *Router) routeRange(st *routeState, req *wire.Request, resp *wire.Response) error {
	st.primaryItems(req)
	err := r.gather(st, st.wave, resp, func(it *waveItem) error {
		st.objs = append(st.objs, it.resp.Objects...)
		if req.NoIndex {
			return nil
		}
		return r.mergeIndex(st, it.shard, it.resp, resp)
	})
	if err != nil {
		return err
	}
	st.mergeObjects(resp)
	return nil
}

// knnMerge sorts the gathered kNN candidates by (distance, id).
type knnMerge routeState

func (m *knnMerge) Len() int { return len(m.knnObjs) }
func (m *knnMerge) Less(i, j int) bool {
	if m.knnDists[i] != m.knnDists[j] {
		return m.knnDists[i] < m.knnDists[j]
	}
	return m.knnObjs[i].ID < m.knnObjs[j].ID
}
func (m *knnMerge) Swap(i, j int) {
	m.knnObjs[i], m.knnObjs[j] = m.knnObjs[j], m.knnObjs[i]
	m.knnDists[i], m.knnDists[j] = m.knnDists[j], m.knnDists[i]
}

// appendKNN adds one full-k kNN sub-query for shard s. A positive bound is
// the router's current global k-th-best distance, shipped as the shard's
// pruning bound (wire.Request.Bound); probe items are counted as re-issues
// in the router stats.
func (st *routeState) appendKNN(req *wire.Request, s int, bound float64) {
	st.wave = append(st.wave, waveItem{shard: s, task: -1, reissue: bound > 0})
	it := &st.wave[len(st.wave)-1]
	it.req = wire.Request{
		Client:    req.Client,
		Q:         req.Q,
		CachedIDs: req.CachedIDs,
		NoIndex:   req.NoIndex,
		Epoch:     st.baseVec[s],
		FMR:       req.FMR,
		HasFMR:    req.HasFMR,
	}
	if !st.selfSeed[s] {
		it.req.H = st.subH[s]
	}
	if bound > 0 && !math.IsInf(bound, 1) {
		it.req.Bound = bound
	}
}

// knnDK sorts the gathered candidates and returns the current global
// k-th-best distance (infinite while fewer than k candidates are known).
func (st *routeState) knnDK(k int) float64 {
	sort.Sort((*knnMerge)(st))
	if len(st.knnObjs) >= k {
		return st.knnDists[k-1]
	}
	return math.Inf(1)
}

// routeKNN is a primary-first scatter: the shard with the smallest distance
// lower bound answers the full k alone (inline, no fan-out), its k-th-best
// distance dk caps what any other shard could contribute, and only shards
// whose lower bound beats dk are probed — at full k, with dk as their
// pruning bound, so a second wave always suffices (a top-k merge takes at
// most k objects from any one shard). Under a uniform distribution dk is
// usually inside the primary shard's region, every other shard's bound
// exceeds it, and a multi-shard kNN costs exactly one single-shard
// sub-query.
func (r *Router) routeKNN(st *routeState, req *wire.Request, resp *wire.Response) error {
	k := req.Q.K
	if k <= 0 {
		return nil
	}
	// Candidate shards and their distance lower bounds.
	ncand, primary := 0, -1
	for s := 0; s < st.nsh; s++ {
		if !st.selfSeed[s] && len(st.subH[s]) == 0 {
			st.knnLower[s] = math.Inf(1)
			continue
		}
		if st.selfSeed[s] {
			st.minKey[s] = geom.MinDist(req.Q.Center, st.meta[s].mbr)
		}
		st.knnLower[s] = st.minKey[s]
		ncand++
		if primary < 0 || st.knnLower[s] < st.knnLower[primary] {
			primary = s
		}
	}
	if ncand == 0 {
		return nil
	}
	// Each gathered query item adds its unseen candidates and its index;
	// lag piggybacks carry consistency only.
	candidates := func(it *waveItem) error {
		if it.req.Catalog {
			return nil
		}
		for _, o := range it.resp.Objects {
			if st.seenObj.Add(uint64(o.ID)) {
				st.knnObjs = append(st.knnObjs, o)
				st.knnDists = append(st.knnDists, req.Q.KeyFor(o.MBR))
			}
		}
		if req.NoIndex {
			return nil
		}
		return r.mergeIndex(st, it.shard, it.resp, resp)
	}

	// Wave 1: the primary shard alone, full k.
	st.appendKNN(req, primary, 0)
	if err := r.gather(st, st.wave, resp, candidates); err != nil {
		return err
	}
	dk := st.knnDK(k)

	// Wave 2: shards whose nearest possible object still beats the current
	// k-th best, plus catalog piggybacks for lagging shards the query now
	// skips entirely (their pending invalidations must still reach the
	// client). Ties at exactly dk stay with the already-gathered candidates,
	// matching the merge order's (distance, id) tie-break contract.
	waveStart := len(st.wave)
	for s := 0; s < st.nsh; s++ {
		if s == primary || st.knnLower[s] >= dk {
			continue
		}
		st.appendKNN(req, s, dk)
	}
	st.appendLagCatalogs(req, func(s int) bool {
		return s == primary || st.knnLower[s] < dk
	})
	if wave := st.wave[waveStart:]; len(wave) > 0 {
		if err := r.gather(st, wave, resp, candidates); err != nil {
			return err
		}
		sort.Sort((*knnMerge)(st))
	}

	n := min(k, len(st.knnObjs))
	resp.Objects = append(resp.Objects, st.knnObjs[:n]...)
	return nil
}

// inflate grows a rectangle by d on every side.
func inflate(rc geom.Rect, d float64) geom.Rect {
	return geom.Rect{MinX: rc.MinX - d, MinY: rc.MinY - d, MaxX: rc.MaxX + d, MaxY: rc.MaxY + d}
}

// routeJoin broadcasts the self-join to overlapping shards for intra-shard
// pairs and runs boundary-band candidate scans for every cross-shard task:
// side A collects the objects beneath its reference within distance reach
// of side B's rectangle (clipped to the join window) and vice versa, then
// the router pairs candidates with the exact join predicate.
func (r *Router) routeJoin(st *routeState, req *wire.Request, resp *wire.Response) error {
	st.primaryItems(req)

	for ti := range st.cross {
		t := &st.cross[ti]
		wa, okA := inflate(t.b.MBR, req.Q.Dist).Intersection(req.Q.JoinWindow)
		wb, okB := inflate(t.a.MBR, req.Q.Dist).Intersection(req.Q.JoinWindow)
		if !okA || !okB {
			continue // the bands cannot meet: no cross pairs possible
		}
		for side, w := range [2]geom.Rect{wa, wb} {
			sh, ref := t.sa, t.a
			if side == 1 {
				sh, ref = t.sb, t.b
			}
			st.wave = append(st.wave, waveItem{shard: sh, task: ti, side: side})
			it := &st.wave[len(st.wave)-1]
			it.req = wire.Request{
				Client:    req.Client,
				Q:         query.NewRange(w),
				CachedIDs: req.CachedIDs,
				NoIndex:   req.NoIndex,
				Epoch:     st.baseVec[sh],
				H:         []query.QueuedElem{{Elem: query.Single(ref)}},
			}
			if st.selfSeed[sh] || len(st.subH[sh]) > 0 {
				// The shard also gets a primary sub-query carrying the
				// client's feedback, and the wave runs both at once. With
				// the report on both, whichever the shard sees first folds
				// it in and the other finds it folded (a repeated report
				// changes nothing), so the scan's cuts are refined at the
				// post-feedback d whatever the scheduling — without it the
				// shipped cut depended on which goroutine ran first.
				it.req.FMR, it.req.HasFMR = req.FMR, req.HasFMR
			}
		}
	}
	err := r.gather(st, st.wave, resp, func(it *waveItem) error {
		if !req.NoIndex {
			if err := r.mergeIndex(st, it.shard, it.resp, resp); err != nil {
				return err
			}
		}
		if it.task < 0 { // primary sub-query or lag piggyback
			st.objs = append(st.objs, it.resp.Objects...)
			for _, p := range it.resp.Pairs {
				st.appendPair(resp, p)
			}
			return nil
		}
		t := &st.cross[it.task]
		cands := append([]wire.ObjectRep(nil), it.resp.Objects...)
		if it.side == 0 {
			t.candsA, t.haveA = cands, true
		} else {
			t.candsB, t.haveB = cands, true
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Pair band candidates with the exact join predicate.
	for ti := range st.cross {
		t := &st.cross[ti]
		if !t.haveA || !t.haveB {
			continue
		}
		for _, a := range t.candsA {
			for _, b := range t.candsB {
				if a.ID == b.ID || geom.RectMinDist(a.MBR, b.MBR) > req.Q.Dist {
					continue
				}
				p := [2]rtree.ObjectID{a.ID, b.ID}
				if p[1] < p[0] {
					p[0], p[1] = p[1], p[0]
				}
				if st.appendPair(resp, p) {
					st.objs = append(st.objs, a, b)
				}
			}
		}
	}

	st.mergeObjects(resp)
	st.sortPairs(resp.Pairs)
	return nil
}

// sortPairs sorts the merged join pairs by (a, b). Ids are 32 bits, so the
// pair packs into one word whose order is exactly that.
func (st *routeState) sortPairs(pairs [][2]rtree.ObjectID) {
	keys := st.objKeys[:0]
	for _, p := range pairs {
		keys = append(keys, uint64(p[0])<<32|uint64(p[1]))
	}
	keys = st.sortKeys(keys, 0)
	for i, k := range keys {
		pairs[i] = [2]rtree.ObjectID{rtree.ObjectID(k >> 32), rtree.ObjectID(k)}
	}
	st.objKeys = keys
}

// radixMinKeys is the smallest key list sortKeys radix-sorts. Below it a
// comparison sort is faster: a radix pass clears and sums up to 2 048
// counters whatever the list's length. Measured on 2 vCPU (docs/PERF.md,
// "Answer bookkeeping"), the two break even near 150 object keys (a
// small-reads range answers ~114 objects, so it keeps the comparison sort)
// and from the big-scans range p50 (~850 objects) on radix is 2–9 times
// faster. Pair keys differ in twice the bits, so radix only wins from
// ~1 000 pairs; a join of 256–1 000 pairs pays a few µs more to sort.
const radixMinKeys = 256

// sortKeys sorts keys ascending and returns them; the sorted list may live
// in st.sortBuf's old array, and the other array becomes the new
// st.sortBuf. Among keys equal from bit lo up, the bits below lo must
// already ascend (mergeObjects' arrival half does), so only bits lo and up
// are sorted on, stably. It is an LSD radix sort that visits only the
// digits in which the keys differ: the span between the lowest and the
// highest differing bit is cut into equal digits of at most 11 bits, and a
// digit whose bits are the same in every key is skipped.
func (st *routeState) sortKeys(keys []uint64, lo uint) []uint64 {
	const digitBits = 11
	if len(keys) < radixMinKeys {
		slices.Sort(keys)
		return keys
	}
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or |= k
		and &= k
	}
	diff := (or ^ and) >> lo << lo
	if diff == 0 {
		return keys
	}
	buf := slices.Grow(st.sortBuf[:0], len(keys))[:len(keys)]
	span := uint(bits.Len64(diff) - bits.TrailingZeros64(diff))
	passes := (span + digitBits - 1) / digitBits
	width := (span + passes - 1) / passes
	mask := uint64(1)<<width - 1
	var counts [1 << digitBits]uint32
	count := counts[:1<<width]
	for diff != 0 {
		shift := uint(bits.TrailingZeros64(diff))
		clear(count)
		for _, k := range keys {
			count[k>>shift&mask]++
		}
		sum := uint32(0)
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, k := range keys {
			d := k >> shift & mask
			buf[count[d]] = k
			count[d]++
		}
		keys, buf = buf, keys
		diff &^= mask << shift
	}
	st.sortBuf = buf
	return keys
}

// appendPair deduplicates one canonical join pair into the response,
// reporting whether it was new.
func (st *routeState) appendPair(resp *wire.Response, p [2]rtree.ObjectID) bool {
	if !st.seenPair.Add(uint64(p[0])<<32 | uint64(p[1])) {
		return false
	}
	resp.Pairs = append(resp.Pairs, p)
	return true
}
