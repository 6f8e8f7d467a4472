package query

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/pq"
	"repro/internal/rtree"
)

// Provider supplies index structure and object availability to the engine.
//
// The server's provider always succeeds; the client's provider consults the
// proactive cache and reports missing pages, super entries (which are by
// definition opaque on the client) and evicted object payloads.
type Provider interface {
	// Expand returns the immediate children of a node or super reference:
	// for a node, its entries (or the elements of its cached cut); for a
	// super entry, the two children of its partition-tree position.
	// ok = false marks the reference as missing.
	//
	// The returned slice is only valid until the next Expand call on the
	// same provider: implementations may reuse one scratch buffer across
	// calls to keep the hot path allocation-free. The engine copies when it
	// must hold children across a second expansion (join pairs).
	Expand(ref Ref) (children []Ref, ok bool)

	// HaveObject reports whether the object's payload is available locally.
	HaveObject(obj rtree.ObjectID) bool
}

// LeafResolver lets a provider that holds every object and never reports a
// target missing (the server's) resolve join pairs at leaf level: the Runner
// confirms everything beneath a popped pair whose sides are both at leaf
// level depth-first, off the queue. Its descendants touch only pages the pair
// itself visits, so the visit order, the positions expanded, the pair set
// and Stats stay the queue's; only the order of Outcome.Pairs changes. The
// client's provider touches its cache in pop order and keeps the queue.
type LeafResolver interface {
	// LeafLevel reports whether ref is an object, or a node or super entry
	// of a level-0 node, whose page holds objects only.
	LeafLevel(ref Ref) bool
}

// Stats counts the work a run performed; the simulation's client CPU cost
// model is built on these. Pushes and pops count the elements Algorithm 1
// queues and dequeues, not calls into the heap: a pair resolved at leaf level
// (LeafResolver) counts the push and the pop the queue would have made.
type Stats struct {
	Pops    int // elements dequeued
	Pushes  int // elements queued
	Expands int // successful Expand calls
	Evals   int // candidate evaluations (predicate checks, incl. join pairs)
}

// Total sums the counters (the per-op CPU model's input).
func (s Stats) Total() int { return s.Pops + s.Pushes + s.Expands + s.Evals }

// Add accumulates another run's counters.
func (s *Stats) Add(o Stats) {
	s.Pops += o.Pops
	s.Pushes += o.Pushes
	s.Expands += o.Expands
	s.Evals += o.Evals
}

// Outcome is the result of one engine run. Its slices alias the Runner's
// buffers: they are valid until that Runner's next Run or Reset.
type Outcome struct {
	// Results holds confirmed result objects in confirmation order
	// (ascending distance for kNN). On the client these are the saved
	// objects Rs of the paper.
	Results []Ref

	// Pairs holds confirmed join result pairs, each canonically ordered. They
	// come in confirmation order. On a LeafResolver (the server) that is the
	// pop order of the queued pairs, with every pair beneath a leaf-level
	// pair confirmed depth-first when that pair pops.
	Pairs [][2]Ref

	// Remainder is the pruned priority-queue snapshot to hand to the
	// server, in ascending key order; empty iff Complete. It is merged from
	// the stuck elements and the queue and, for kNN, cut after the object
	// element that completes K (and its ties): the queue is never drained.
	Remainder []QueuedElem

	// Complete reports that the query was fully answered locally.
	Complete bool

	Stats Stats
}

// AppendSeedRoot appends the initial queue contents for a fresh query rooted
// at the given reference (a pair seed for joins) to dst, a caller-owned
// buffer on hot paths that seed a fresh query per request.
func AppendSeedRoot(dst []QueuedElem, q Query, root Ref) []QueuedElem {
	if q.Kind == Join {
		if !q.acceptsPair(root.MBR, root.MBR) {
			return dst
		}
		return append(dst, QueuedElem{Key: q.PairKeyFor(root.MBR, root.MBR), Elem: PairOf(root, root)})
	}
	if !q.accepts(root.MBR) {
		return dst
	}
	return append(dst, QueuedElem{Key: q.KeyFor(root.MBR), Elem: Single(root)})
}

// Runner owns the reusable execution state of Algorithm 1: the best-first
// priority queue, the stuck-element accumulator, and the result buffers. A
// warm Runner executes a query without allocating; the server keeps Runners
// in a sync.Pool so each request borrows one, and a core.Client owns one.
//
// A Runner is not safe for concurrent use.
type Runner struct {
	h           pq.Queue[Elem]
	fifo        []Ref // range-query queue (see runRangeFIFO)
	stuck       []QueuedElem
	rem         []QueuedElem // the remainder (mergeRemainder)
	results     []Ref
	pairs       [][2]Ref
	pairScratch []Ref // holds one side of a double-descend join expansion

	// Leaf-level resolution (LeafResolver): while resolving, pushPair
	// stacks child pairs on leafStack, and confirms object pairs, instead
	// of queueing them.
	resolving bool
	leafStack []Elem
}

// Reset clears the runner for the next query, retaining all backing storage.
func (r *Runner) Reset() {
	r.h.Reset()
	clear(r.fifo)
	r.fifo = r.fifo[:0]
	r.stuck = r.stuck[:0]
	r.results = r.results[:0]
	r.pairs = r.pairs[:0]
	r.pairScratch = r.pairScratch[:0]
	r.resolving = false
	r.leafStack = r.leafStack[:0]
}

// Run executes q over the provider starting from the seeded queue state.
// It implements Algorithm 1 of the paper, generalized to all three query
// kinds: missing elements accumulate outside the queue, kNN terminates when
// confirmed results plus missing leaf elements reach K, and the remainder is
// the pruned union of missing and unexplored elements.
func (r *Runner) Run(q Query, prov Provider, seed []QueuedElem) Outcome {
	return r.RunBounded(q, prov, seed, 0)
}

// RunBounded is Run with a priority-key upper bound: when bound is positive,
// processing stops as soon as the queue head's key exceeds it. Keys are
// lower bounds on the results beneath an element, so nothing within the
// bound is lost; everything beyond it lands in the remainder as usual. A
// cluster router uses this to stop a kNN sub-query at the global k-th-best
// distance it already holds (wire.Request.Bound). Zero means unbounded.
//
// An incomplete run merges its remainder from the stuck elements and the
// queue and cuts a kNN remainder where Example 3.1's pruning does
// (mergeRemainder), so it pops only the queue elements it ships.
func (r *Runner) RunBounded(q Query, prov Provider, seed []QueuedElem, bound float64) Outcome {
	r.Reset()
	if q.Kind == Range && rangeFIFOOK(seed) {
		return r.runRangeFIFO(q, prov, seed)
	}
	var out Outcome
	// A bounded run stops at the bound, which a depth-first descent would
	// not, so only unbounded joins resolve at leaf level.
	var leaf LeafResolver
	if q.Kind == Join && bound <= 0 {
		leaf, _ = prov.(LeafResolver)
	}
	minMissingNonLeaf := math.Inf(1)
	m := 0            // confirmed results
	nMissingLeaf := 0 // popped object elements that could not be confirmed

	// Pre-grow past the handful of doubling reallocations every non-trivial
	// query pays; warm-cache heaps routinely exceed 64 elements.
	r.h.Grow(len(seed) + 64)
	for _, qe := range seed {
		r.h.Push(qe.Key, qe.Elem)
		out.Stats.Pushes++
	}

	for {
		if q.Kind == KNN && m+nMissingLeaf >= q.K {
			break
		}
		if r.h.Len() == 0 {
			break
		}
		if bound > 0 {
			if r.h.MinKey() > bound {
				break // every remaining element exceeds the bound
			}
		}
		key, elem := r.h.Pop()
		out.Stats.Pops++

		if elem.IsObjectElem() {
			available := prov.HaveObject(elem.A.Obj) && (!elem.Pair || prov.HaveObject(elem.B.Obj))
			switch {
			case !available:
				r.stuck = append(r.stuck, QueuedElem{Key: key, Elem: elem})
				nMissingLeaf++
			case q.Kind == KNN && minMissingNonLeaf <= key:
				// A missing non-leaf element precedes this object in H, so
				// it cannot be confirmed as the next nearest neighbor.
				r.stuck = append(r.stuck, QueuedElem{Key: key, Elem: elem, Deferred: true})
				nMissingLeaf++
			default:
				if elem.Pair {
					r.pairs = append(r.pairs, [2]Ref{elem.A, elem.B})
				} else {
					r.results = append(r.results, elem.A)
				}
				m++
			}
			continue
		}

		if leaf != nil && elem.Pair && leaf.LeafLevel(elem.A) && leaf.LeafLevel(elem.B) {
			r.resolveLeafLevel(q, prov, &elem, &out.Stats)
			continue
		}
		if !r.expandElem(q, prov, &elem, &out.Stats) {
			r.stuck = append(r.stuck, QueuedElem{Key: key, Elem: elem})
			if key < minMissingNonLeaf {
				minMissingNonLeaf = key
			}
		}
	}

	out.Results = r.results
	out.Pairs = r.pairs

	needRemainder := len(r.stuck) > 0
	if q.Kind == KNN {
		needRemainder = m < q.K && len(r.stuck) > 0
	}
	if !needRemainder {
		out.Complete = true
		return out
	}

	want := math.MaxInt // object elements the remainder must hold: all, but for kNN
	if q.Kind == KNN {
		want = q.K - m
	}
	out.Remainder = r.mergeRemainder(want)
	return out
}

// mergeRemainder builds the remainder: the stuck elements and the queue's
// contents in ascending key order, stuck elements first among equal keys.
// That is the stable sort of the stuck list followed by the queue's drain,
// since a drain pops keys in non-decreasing order for every key but NaN (and
// no key function yields NaN). It is built as a merge of the sorted stuck
// list with pops from the queue, and it stops after the want-th object
// element and the elements tied with its key: a farther element cannot
// contain any of the remaining nearest neighbors (Example 3.1's pruning).
// The queue is never drained; what the cut leaves in it is dropped by the
// next Reset.
func (r *Runner) mergeRemainder(want int) []QueuedElem {
	// Stable, and allocation-free unlike sort.SliceStable's reflect path.
	slices.SortStableFunc(r.stuck, func(a, b QueuedElem) int {
		return cmp.Compare(a.Key, b.Key)
	})
	rem, i := r.rem[:0], 0
	var cutKey float64 // once want is 0: the want-th object element's key
	for {
		if i < len(r.stuck) && (r.h.Len() == 0 || cmp.Compare(r.stuck[i].Key, r.h.MinKey()) <= 0) {
			if want == 0 && r.stuck[i].Key != cutKey {
				break
			}
			rem = append(rem, r.stuck[i])
			i++
		} else if r.h.Len() > 0 {
			if want == 0 && r.h.MinKey() != cutKey {
				break
			}
			key, elem := r.h.Pop()
			rem = append(rem, QueuedElem{Key: key, Elem: elem})
		} else {
			break
		}
		if last := &rem[len(rem)-1]; want > 0 && last.Elem.IsObjectElem() {
			if want--; want == 0 {
				cutKey = last.Key
			}
		}
	}
	r.rem = rem
	return rem
}

// rangeFIFOOK reports whether a range seed admits the FIFO fast path: every
// queued element keyed zero and no pair elements. Range priorities are always
// zero (Query.KeyFor), so any handed-over or root seed qualifies unless a client
// shipped something degenerate — then the general heap loop handles it.
func rangeFIFOOK(seed []QueuedElem) bool {
	for _, qe := range seed {
		if qe.Key != 0 || qe.Elem.Pair {
			return false
		}
	}
	return true
}

// runRangeFIFO executes a range query with a plain FIFO queue instead of the
// priority queue. The heap breaks equal keys FIFO by push sequence, and every
// element of a range run carries key zero, so pop order — and with it every
// observable output: result order, stuck order, the remainder, and the stats
// counters — is identical to the heap loop's. What changes is the cost: no
// sift copies of the fat Elem through the heap, no key comparisons.
func (r *Runner) runRangeFIFO(q Query, prov Provider, seed []QueuedElem) Outcome {
	var out Outcome
	if cap(r.fifo) < len(seed)+64 {
		r.fifo = make([]Ref, 0, len(seed)+64)
	}
	for _, qe := range seed {
		r.fifo = append(r.fifo, qe.Elem.A)
		out.Stats.Pushes++
	}

	for head := 0; head < len(r.fifo); head++ {
		ref := r.fifo[head]
		out.Stats.Pops++

		if ref.IsObject() {
			if !prov.HaveObject(ref.Obj) {
				r.stuck = append(r.stuck, QueuedElem{Elem: Single(ref)})
				continue
			}
			r.results = append(r.results, ref)
			continue
		}

		children, ok := prov.Expand(ref)
		if !ok {
			r.stuck = append(r.stuck, QueuedElem{Elem: Single(ref)})
			continue
		}
		out.Stats.Expands++
		out.Stats.Evals += len(children)
		for _, c := range children {
			if q.accepts(c.MBR) {
				r.fifo = append(r.fifo, c)
				out.Stats.Pushes++
			}
		}
	}

	out.Results = r.results
	out.Pairs = r.pairs
	if len(r.stuck) == 0 {
		out.Complete = true
		return out
	}
	// All keys are zero: the heap path's stable sort preserves accumulation
	// order, so the stuck list is the remainder as-is.
	out.Remainder = r.stuck
	return out
}

// expandElem expands a non-object element, pushing its accepted children
// straight into the priority queue (no intermediate slice — expansion is
// the engine's hottest allocation site). It reports false when the element
// is missing from the provider.
func (r *Runner) expandElem(q Query, prov Provider, elem *Elem, stats *Stats) bool {
	if !elem.Pair {
		children, ok := prov.Expand(elem.A)
		if !ok {
			return false
		}
		stats.Expands++
		stats.Evals += len(children)
		for _, c := range children {
			if q.accepts(c.MBR) {
				r.h.Push(q.KeyFor(c.MBR), Single(c))
				stats.Pushes++
			}
		}
		return true
	}
	return r.expandPair(q, prov, elem, stats)
}

// resolveLeafLevel confirms every result pair beneath the popped leaf-level
// pair elem depth-first (see LeafResolver). Each pair it stacks counts the
// push and the pop the queue would have made, so Stats are the queue's.
func (r *Runner) resolveLeafLevel(q Query, prov Provider, elem *Elem, stats *Stats) {
	r.resolving = true
	r.expandPair(q, prov, elem, stats)
	for n := len(r.leafStack); n > 0; n = len(r.leafStack) {
		e := r.leafStack[n-1]
		r.leafStack = r.leafStack[:n-1]
		stats.Pops++
		r.expandPair(q, prov, &e, stats)
	}
	r.resolving = false
}

// pushPair queues the child pair <x, y> of two refs inside the join window
// if it may contain result pairs: what is left of acceptsPair is the distance
// test, and that distance is the pair's key. While a leaf-level pair
// resolves, the child pair goes on the depth-first stack instead, or, when
// both sides are objects, is confirmed at once.
func (r *Runner) pushPair(q Query, x, y *Ref, stats *Stats) {
	key, ok := geom.RectMinDistWithin(x.MBR, y.MBR, q.Dist)
	if !ok {
		return
	}
	if x.IsObject() && x.Same(*y) {
		return // a distance self-join never pairs an object with itself
	}
	stats.Pushes++
	switch {
	case !r.resolving:
		r.h.Push(key, PairOf(*x, *y))
	case x.IsObject() && y.IsObject():
		stats.Pops++
		if y.Less(*x) {
			x, y = y, x
		}
		r.pairs = append(r.pairs, [2]Ref{*x, *y})
	default:
		r.leafStack = append(r.leafStack, PairOf(*x, *y))
	}
}

// inJoinWindow appends to dst the refs whose MBR meets the join window, in
// order. The others fail acceptsPair against every partner: expandPair drops
// them once, here, and counts their pairs in Stats.Evals without visiting them.
func inJoinWindow(dst []Ref, q Query, refs []Ref) []Ref {
	for i := range refs {
		if refs[i].MBR.Intersects(q.JoinWindow) {
			dst = append(dst, refs[i])
		}
	}
	return dst
}

// expandPair expands a join pair by descending every expandable side.
// A pair is missing when any side it must descend is missing (footnote 3 of
// the paper). Child pairs are pushed in nested-loop order, side a outer: the
// heap pops equal keys in push order.
func (r *Runner) expandPair(q Query, prov Provider, elem *Elem, stats *Stats) bool {
	a, b := &elem.A, &elem.B

	switch {
	case a.IsObject() || b.IsObject(): // descend the other side only
		obj, node := a, b
		if b.IsObject() {
			obj, node = b, a
		}
		children, ok := prov.Expand(*node)
		if !ok {
			return false
		}
		stats.Expands++
		stats.Evals += len(children)
		if !obj.MBR.Intersects(q.JoinWindow) {
			return true
		}
		for i := range children {
			if c := &children[i]; c.MBR.Intersects(q.JoinWindow) {
				r.pushPair(q, obj, c, stats)
			}
		}
		return true

	case a.Same(*b): // one expansion, unordered child pairs
		children, ok := prov.Expand(*a)
		if !ok {
			return false
		}
		stats.Expands++
		stats.Evals += len(children) * (len(children) + 1) / 2
		in := inJoinWindow(r.pairScratch[:0], q, children)
		r.pairScratch = in
		for i := range in {
			for j := i; j < len(in); j++ {
				r.pushPair(q, &in[i], &in[j], stats)
			}
		}
		return true

	default: // descend both sides
		ca, okA := prov.Expand(*a)
		if !okA {
			return false
		}
		// The provider may reuse its scratch buffer on the next Expand:
		// side a is copied out before side b is descended.
		nA := len(ca)
		in := inJoinWindow(r.pairScratch[:0], q, ca)
		inA := len(in)
		cb, okB := prov.Expand(*b)
		if !okB {
			return false
		}
		stats.Expands += 2
		stats.Evals += nA * len(cb)
		in = inJoinWindow(in, q, cb)
		r.pairScratch = in
		for i := 0; i < inA; i++ {
			for j := inA; j < len(in); j++ {
				r.pushPair(q, &in[i], &in[j], stats)
			}
		}
		return true
	}
}
