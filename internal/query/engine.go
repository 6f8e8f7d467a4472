package query

import (
	"cmp"
	"math"
	"slices"

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

// Stats counts the work a run performed; the simulation's client CPU cost
// model is built on these.
type Stats struct {
	Pops    int // priority-queue pops
	Pushes  int // priority-queue pushes
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

	// Pairs holds confirmed join result pairs (canonically ordered).
	Pairs [][2]Ref

	// Remainder is the pruned priority-queue snapshot to hand to the
	// server; empty iff Complete.
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
	results     []Ref
	pairs       [][2]Ref
	pairScratch []Ref // holds one side of a double-descend join expansion
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
func (r *Runner) RunBounded(q Query, prov Provider, seed []QueuedElem, bound float64) Outcome {
	r.Reset()
	if q.Kind == Range && rangeFIFOOK(seed) {
		return r.runRangeFIFO(q, prov, seed)
	}
	var out Outcome
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
			if key, _ := r.h.Min(); key > bound {
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

		if !r.expandElem(q, prov, elem, &out.Stats) {
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

	remainder := r.stuck
	for r.h.Len() > 0 {
		key, elem := r.h.Pop()
		remainder = append(remainder, QueuedElem{Key: key, Elem: elem})
	}
	r.stuck = remainder // keep the grown buffer for the next run
	// Stable, and allocation-free unlike sort.SliceStable's reflect path.
	slices.SortStableFunc(remainder, func(a, b QueuedElem) int {
		return cmp.Compare(a.Key, b.Key)
	})

	if q.Kind == KNN {
		remainder = pruneKNNRemainder(remainder, q.K-m)
	}
	out.Remainder = remainder
	return out
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

// pruneKNNRemainder drops every element farther than the want-th object
// element: such elements cannot contain any of the remaining nearest
// neighbors (Example 3.1's pruning). The input must be sorted by key.
func pruneKNNRemainder(rem []QueuedElem, want int) []QueuedElem {
	seen := 0
	for i, qe := range rem {
		if !qe.Elem.IsObjectElem() {
			continue
		}
		seen++
		if seen == want {
			cut := rem[:i+1]
			// Keep ties: elements at exactly the threshold key may still
			// contain equally near objects.
			for j := i + 1; j < len(rem) && rem[j].Key == qe.Key; j++ {
				cut = rem[:j+1]
			}
			return cut
		}
	}
	return rem
}

// expandElem expands a non-object element, pushing its accepted children
// straight into the priority queue (no intermediate slice — expansion is
// the engine's hottest allocation site). It reports false when the element
// is missing from the provider.
func (r *Runner) expandElem(q Query, prov Provider, elem Elem, stats *Stats) bool {
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

// pushPair queues the child pair <x, y> of two refs inside the join window
// if it may contain result pairs: what is left of acceptsPair is the distance
// test, and that distance is the pair's key.
func (r *Runner) pushPair(q Query, x, y *Ref, stats *Stats) {
	key := q.PairKeyFor(x.MBR, y.MBR)
	if !(key <= q.Dist) {
		return
	}
	if x.IsObject() && x.Same(*y) {
		return // a distance self-join never pairs an object with itself
	}
	r.h.Push(key, PairOf(*x, *y))
	stats.Pushes++
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
func (r *Runner) expandPair(q Query, prov Provider, elem Elem, stats *Stats) bool {
	a, b := elem.A, elem.B

	switch {
	case a.IsObject() || b.IsObject(): // descend the other side only
		obj, node := &a, b
		if b.IsObject() {
			obj, node = &b, a
		}
		children, ok := prov.Expand(node)
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

	case a.Same(b): // one expansion, unordered child pairs
		children, ok := prov.Expand(a)
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
		ca, okA := prov.Expand(a)
		if !okA {
			return false
		}
		// The provider may reuse its scratch buffer on the next Expand:
		// side a is copied out before side b is descended.
		nA := len(ca)
		in := inJoinWindow(r.pairScratch[:0], q, ca)
		inA := len(in)
		cb, okB := prov.Expand(b)
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
