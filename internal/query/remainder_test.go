package query

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// referenceRemainder is RunBounded as it was before the remainder became a
// merge: the same main loop, then the whole queue drained after the stuck
// list, everything stable-sorted by key, and a kNN remainder cut with
// pruneKNNRemainder. RunBounded must return exactly what it returns. For
// coverage it also returns copies of the stuck list the main loop left, in
// its order, and of what the drain popped.
func referenceRemainder(r *Runner, q Query, prov Provider, seed []QueuedElem, bound float64) (out Outcome, stuck, drained []QueuedElem) {
	r.Reset()
	if q.Kind == Range && rangeFIFOOK(seed) {
		out = r.runRangeFIFO(q, prov, seed)
		return out, slices.Clone(r.stuck), nil
	}
	var leaf LeafResolver
	if q.Kind == Join && bound <= 0 {
		leaf, _ = prov.(LeafResolver)
	}
	minMissingNonLeaf := math.Inf(1)
	m, nMissingLeaf := 0, 0
	for _, qe := range seed {
		r.h.Push(qe.Key, qe.Elem)
		out.Stats.Pushes++
	}
	for {
		if q.Kind == KNN && m+nMissingLeaf >= q.K {
			break
		}
		if r.h.Len() == 0 || bound > 0 && r.h.MinKey() > bound {
			break
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
			minMissingNonLeaf = min(minMissingNonLeaf, key)
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
		return out, nil, nil
	}
	stuck = slices.Clone(r.stuck)
	remainder := r.stuck
	for r.h.Len() > 0 {
		key, elem := r.h.Pop()
		remainder = append(remainder, QueuedElem{Key: key, Elem: elem})
	}
	r.stuck = remainder
	drained = slices.Clone(remainder[len(stuck):])
	slices.SortStableFunc(remainder, func(a, b QueuedElem) int {
		return cmp.Compare(a.Key, b.Key)
	})
	if q.Kind == KNN {
		remainder = pruneKNNRemainder(remainder, q.K-m)
	}
	out.Remainder = remainder
	return out, stuck, drained
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

// remainderCoverage counts the shapes a remainder comparison must have met.
type remainderCoverage struct {
	incompleteKNN int // kNN runs that shipped a remainder
	heapLeft      int // ... and left elements in the queue
	unsortedStuck int // runs whose stuck list was out of key order
	crossTies     int // remainders where a stuck element ties a queued one
	deferred      int // remainders holding a Deferred element
	negZero       int // remainders holding a -0 key
	boundedLeft   int // bounded range or join runs that merged a non-empty queue
}

// checkRemainderMatchesDrain runs one query through RunBounded on got and
// through referenceRemainder on ref, and requires the same Outcome: Stats,
// Complete, Results and Pairs in order, and the Remainder element by element
// with its keys bit for bit.
func checkRemainderMatchesDrain(t *testing.T, got, ref *Runner, cov *remainderCoverage, q Query, prov Provider, seed []QueuedElem, bound float64) {
	t.Helper()
	want, stuck, drained := referenceRemainder(ref, q, prov, seed, bound)
	out := got.RunBounded(q, prov, seed, bound)
	if out.Stats != want.Stats || out.Complete != want.Complete {
		t.Fatalf("%v bound %v: stats %+v complete %v, reference %+v %v", q.Kind, bound, out.Stats, out.Complete, want.Stats, want.Complete)
	}
	if !slices.Equal(out.Results, want.Results) || !slices.Equal(out.Pairs, want.Pairs) {
		t.Fatalf("%v bound %v: results or pairs differ from the reference", q.Kind, bound)
	}
	if len(out.Remainder) != len(want.Remainder) {
		t.Fatalf("%v k=%d bound %v: remainder of %d elements, reference %d", q.Kind, q.K, bound, len(out.Remainder), len(want.Remainder))
	}
	for i, qe := range out.Remainder {
		w := want.Remainder[i]
		if math.Float64bits(qe.Key) != math.Float64bits(w.Key) || qe.Elem != w.Elem || qe.Deferred != w.Deferred {
			t.Fatalf("%v k=%d bound %v: remainder[%d] = %v key %v deferred %v, reference %v key %v deferred %v",
				q.Kind, q.K, bound, i, qe.Elem, qe.Key, qe.Deferred, w.Elem, w.Key, w.Deferred)
		}
	}
	if out.Complete {
		return
	}
	if q.Kind == KNN {
		cov.incompleteKNN++
		if got.h.Len() > 0 {
			cov.heapLeft++
		}
	} else if bound > 0 && len(drained) > 0 {
		cov.boundedLeft++
	}
	if !slices.IsSortedFunc(stuck, func(a, b QueuedElem) int { return cmp.Compare(a.Key, b.Key) }) {
		cov.unsortedStuck++
	}
	for _, qe := range out.Remainder {
		if qe.Deferred {
			cov.deferred++
			break
		}
	}
	for _, qe := range out.Remainder {
		if qe.Key == 0 && math.Signbit(qe.Key) {
			cov.negZero++
			break
		}
	}
	for i := range stuck {
		if slices.ContainsFunc(drained, func(qe QueuedElem) bool { return qe.Key == stuck[i].Key }) {
			cov.crossTies++
			break
		}
	}
}

// remainderKeys are the keys foreign seeds carry: both zeros, ties, a
// negative key, an infinity, and keys far below and above the distances the
// seeded elements' children get.
var remainderKeys = [...]float64{0, math.Copysign(0, -1), 0.05, 0.05, 0.3, -0.2, math.Inf(1), 1e-9}

// randomRemainderRun draws a query over w with its seed and bound: seeds are
// mostly the root, and otherwise a handful of refs (pairs for a join) keyed
// from remainderKeys regardless of their MBRs, as a foreign seed may be.
func randomRemainderRun(r *rand.Rand, w *pairWorld) (Query, []QueuedElem, float64) {
	at := geom.Pt(0.2+0.6*r.Float64(), 0.2+0.6*r.Float64())
	var q Query
	switch r.Intn(3) {
	case 0:
		side := 0.05 + 0.5*r.Float64()
		q = NewRange(geom.RectFromCenter(at, side, side))
	case 1:
		q = NewKNN(at, 1+r.Intn(len(w.objects)+4))
	default:
		side := 0.1 + 0.6*r.Float64()
		q = NewJoin(geom.RectFromCenter(at, side, side), 0.03*r.Float64())
	}
	var seed []QueuedElem
	if r.Intn(3) == 0 {
		all := append(append(append([]Ref(nil), w.inner...), w.leaves...), w.objects...)
		for n := 1 + r.Intn(6); n > 0; n-- {
			e := Single(all[r.Intn(len(all))])
			if q.Kind == Join {
				e = PairOf(all[r.Intn(len(all))], all[r.Intn(len(all))])
			}
			seed = append(seed, QueuedElem{Key: remainderKeys[r.Intn(len(remainderKeys))], Elem: e})
		}
	} else {
		seed = AppendSeedRoot(nil, q, w.inner[0])
	}
	bound := 0.0
	if r.Intn(4) == 0 {
		bound = 0.3 * r.Float64()
	}
	return q, seed, bound
}

// TestRemainderMatchesDrain holds RunBounded's merged remainder to the
// drain, sort and prune it replaced, over random partial worlds (missing
// nodes, super entries and object payloads, duplicate MBRs), range, kNN and
// join queries with K up to past the world's object count, foreign seeds with
// ±0, tied, negative and out-of-order keys, and bounded runs. One pair of
// Runners serves every run, so their buffers are warm from the second on.
func TestRemainderMatchesDrain(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	var got, ref Runner
	var cov remainderCoverage
	for trial := 0; trial < 2000; trial++ {
		w := buildPairWorld(r)
		q, seed, bound := randomRemainderRun(r, w)
		checkRemainderMatchesDrain(t, &got, &ref, &cov, q, w, seed, bound)
	}
	t.Logf("coverage %+v", cov)
	for name, n := range map[string]int{
		"incomplete kNN":          cov.incompleteKNN,
		"kNN leaving a queue":     cov.heapLeft,
		"unsorted stuck list":     cov.unsortedStuck,
		"stuck tied with queued":  cov.crossTies,
		"Deferred element":        cov.deferred,
		"-0 key":                  cov.negZero,
		"bounded non-empty queue": cov.boundedLeft,
	} {
		if n < 5 {
			t.Errorf("only %d runs with a %s remainder", n, name)
		}
	}

	// An incomplete kNN over 300 missing objects ships two of them and
	// leaves the rest queued (298 when written): the merge pops what it ships
	// and nothing else, where the drain emptied the queue.
	m := buildMock(rand.New(rand.NewSource(56)), 10, 30)
	for id := range m.haveObject {
		m.haveObject[id] = false
	}
	q := NewKNN(geom.Pt(0.5, 0.5), 2)
	checkRemainderMatchesDrain(t, &got, &ref, &cov, q, m, AppendSeedRoot(nil, q, m.rootRef), 0)
	if left := got.h.Len(); left < 200 {
		t.Errorf("an incomplete kNN left %d elements queued; the remainder drained the queue", left)
	}
}

// FuzzRemainderMatchesDrain drives the comparison of TestRemainderMatchesDrain
// from fuzzed input: two bytes seed the world, then a kind, K, a bound and
// pairs of (element, key) bytes that build a foreign seed; no pairs seed the
// root. Keys come from remainderKeys or, for a byte with its top bit set, are
// its low seven bits over 64: every key is non-NaN, as every key function's is.
func FuzzRemainderMatchesDrain(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0})
	f.Add([]byte{0, 7, 1, 200, 0, 3, 1, 9, 4, 3, 0})
	f.Add([]byte{1, 2, 2, 0, 90, 0, 0, 5, 3})
	f.Add([]byte{0, 9, 0, 0, 30, 1, 1, 2, 0})
	var got, ref Runner
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		w := buildPairWorld(rand.New(rand.NewSource(int64(binary.LittleEndian.Uint16(data)))))
		kind, k, b := data[2], data[3], data[4]
		data = data[5:]
		at := geom.Pt(0.5, 0.5)
		var q Query
		switch kind % 3 {
		case 0:
			q = NewRange(geom.RectFromCenter(at, 0.3, 0.3))
		case 1:
			q = NewKNN(at, 1+int(k)%(len(w.objects)+4))
		default:
			q = NewJoin(geom.RectFromCenter(at, 0.5, 0.5), 0.02)
		}
		bound := float64(b) / 512 // 0 (unbounded) to ~0.5
		all := append(append(append([]Ref(nil), w.inner...), w.leaves...), w.objects...)
		var seed []QueuedElem
		for ; len(data) >= 2; data = data[2:] {
			key := float64(data[1]&0x7f) / 64
			if data[1] < 0x80 {
				key = remainderKeys[int(data[1])%len(remainderKeys)]
			}
			e := Single(all[int(data[0])%len(all)])
			if q.Kind == Join {
				e = PairOf(e.A, all[int(data[0])*7%len(all)])
			}
			seed = append(seed, QueuedElem{Key: key, Elem: e})
		}
		if len(seed) == 0 {
			seed = AppendSeedRoot(nil, q, w.inner[0])
		}
		checkRemainderMatchesDrain(t, &got, &ref, &remainderCoverage{}, q, w, seed, bound)
	})
}
