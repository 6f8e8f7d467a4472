package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/bpt"
	"repro/internal/geom"
	"repro/internal/pq"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wire"
)

// ShrinkTo lowers the capacity and immediately evicts down to it, which
// drives the replacement policy one eviction at a time.
func (c *Cache) ShrinkTo(n int) {
	c.capacity = max(n, 0)
	c.evictToCapacity()
}

// buildCache assembles a cache directly from item specs (same-package test
// constructor bypassing the wire path).
type itemSpec struct {
	key    ItemKey
	parent ItemKey
	size   int
	hits   int
	age    uint64 // queries lived
	last   uint64
}

func buildCache(capacity int, policy Policy, now uint64, specs []itemSpec) *Cache {
	c := NewCache(capacity, policy, wire.DefaultSizeModel())
	c.querySeq = now
	for _, s := range specs {
		c.place(&Item{
			Key:        s.key,
			Parent:     s.parent,
			Size:       s.size,
			InsertedAt: now - s.age,
			Hits:       s.hits,
			LastUsed:   s.last,
		})
	}
	return c
}

// place enters a hand-built item the way add does, except that the parent is
// the one the item names: the parent's cut gains a real entry for the item
// (cascading removal finds children there) under the next code of an
// antichain 0, 10, 110, ...
func (c *Cache) place(it *Item) {
	it.pos = len(c.list)
	c.list = append(c.list, it)
	c.items[it.Key] = it
	c.used += it.Size
	if it.Parent == (ItemKey{}) {
		return
	}
	parent := c.items[it.Parent]
	elem := wire.CutElem{Code: bpt.Code(strings.Repeat("1", parent.CachedChildren) + "0")}
	if it.Key.IsNode() {
		elem.Child = it.Key.Node
	} else {
		elem.Obj = it.Key.Obj
	}
	parent.Elems = append(parent.Elems, elem)
	parent.CachedChildren++
}

// TestGRD3LeafOrderByProb: victims leave in ascending access probability,
// parents only after their last child.
func TestGRD3LeafOrderByProb(t *testing.T) {
	// Parent P with children A (prob 0.1) and B (prob 0.9); loner L (0.5).
	c := buildCache(0, GRD3, 100, []itemSpec{
		{key: NodeKey(1), size: 100, hits: 80, age: 100},                    // P: prob 0.8
		{key: ObjKey(1), parent: NodeKey(1), size: 100, hits: 10, age: 100}, // A: 0.1
		{key: ObjKey(2), parent: NodeKey(1), size: 100, hits: 90, age: 100}, // B: 0.9
		{key: ObjKey(3), size: 100, hits: 50, age: 100},                     // L: 0.5
	})

	c.ShrinkTo(300) // evict exactly one: lowest-prob leaf A
	if _, ok := c.items[ObjKey(1)]; ok {
		t.Error("lowest-prob leaf A should have gone first")
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}

	c.ShrinkTo(200) // next: loner L (0.5) — B (0.9) survives
	if _, ok := c.items[ObjKey(3)]; ok {
		t.Error("L should have gone before B")
	}
	if _, ok := c.items[ObjKey(2)]; !ok {
		t.Error("B evicted too early")
	}

	c.ShrinkTo(100)
	// B (prob 0.9) is the only leaf and gets popped, but Definition 5.1's
	// step 6 notices that B alone is worth more than the kept P (0.8) and
	// swaps them back.
	if _, ok := c.items[ObjKey(2)]; !ok {
		t.Error("step 6 should have kept high-benefit B")
	}
	if _, ok := c.items[NodeKey(1)]; ok {
		t.Error("step 6 should have dropped P")
	}
}

// TestGRD3NeverPicksNonLeaf: a parent with a cached child is not a victim
// candidate even at the lowest probability.
func TestGRD3NeverPicksNonLeaf(t *testing.T) {
	c := buildCache(0, GRD3, 100, []itemSpec{
		{key: NodeKey(1), size: 100, hits: 1, age: 100},                     // P: prob 0.01 (lowest!)
		{key: ObjKey(1), parent: NodeKey(1), size: 100, hits: 99, age: 100}, // child: 0.99
		{key: ObjKey(2), size: 100, hits: 50, age: 100},                     // loner: 0.5
	})
	c.ShrinkTo(250)
	if _, ok := c.items[NodeKey(1)]; !ok {
		t.Error("GRD3 evicted a non-leaf item")
	}
	if _, ok := c.items[ObjKey(2)]; ok {
		t.Error("expected the loner leaf to be the victim")
	}
}

// TestGRD3CorrectionStep: Definition 5.1 step 6 — when the last victim alone
// is worth more than everything kept, keep it instead.
func TestGRD3CorrectionStep(t *testing.T) {
	c := buildCache(0, GRD3, 100, []itemSpec{
		{key: NodeKey(1), size: 500, hits: 1, age: 100},                   // A: prob 0.01, benefit 5
		{key: ObjKey(7), parent: NodeKey(1), size: 900, hits: 99, age: 1}, // B: prob 99, benefit huge
	})
	// Capacity 1000: B (the only leaf) is popped; A alone fits, but B's
	// benefit dwarfs A's, so the correction swaps them.
	c.ShrinkTo(1000)
	if _, ok := c.items[ObjKey(7)]; !ok {
		t.Fatal("correction step should have kept B")
	}
	if _, ok := c.items[NodeKey(1)]; ok {
		t.Fatal("correction step should have dropped A")
	}
	if c.Used() != 900 {
		t.Errorf("used = %d", c.Used())
	}
}

// TestLRUCascades: evicting a node under LRU removes its cached subtree.
func TestLRUCascades(t *testing.T) {
	c := buildCache(0, LRU, 100, []itemSpec{
		{key: NodeKey(1), size: 100, hits: 1, age: 10, last: 5}, // stale parent
		{key: ObjKey(1), parent: NodeKey(1), size: 100, hits: 1, age: 10, last: 99},
		{key: ObjKey(2), size: 100, hits: 1, age: 10, last: 98},
	})
	c.ShrinkTo(150)
	// The LRU victim is the parent (last=5); its child must cascade even
	// though the child was recently used.
	if _, ok := c.items[NodeKey(1)]; ok {
		t.Error("LRU victim not evicted")
	}
	if _, ok := c.items[ObjKey(1)]; ok {
		t.Error("descendant survived its ancestor's eviction")
	}
	if _, ok := c.items[ObjKey(2)]; !ok {
		t.Error("unrelated item evicted")
	}
}

// TestMRUPicksNewest: MRU removes the most recently used first.
func TestMRUPicksNewest(t *testing.T) {
	c := buildCache(0, MRU, 100, []itemSpec{
		{key: ObjKey(1), size: 100, hits: 1, age: 10, last: 1},
		{key: ObjKey(2), size: 100, hits: 1, age: 10, last: 50},
		{key: ObjKey(3), size: 100, hits: 1, age: 10, last: 99},
	})
	c.ShrinkTo(200)
	if _, ok := c.items[ObjKey(3)]; ok {
		t.Error("MRU kept the most recent item")
	}
	if _, ok := c.items[ObjKey(1)]; !ok {
		t.Error("MRU evicted the oldest item")
	}
}

// TestOversizedItemDiscarded: GRD3 step 1 drops items that can never fit.
func TestOversizedItemDiscarded(t *testing.T) {
	c := buildCache(0, GRD3, 100, []itemSpec{
		{key: ObjKey(1), size: 5000, hits: 100, age: 1}, // hot but huge
		{key: ObjKey(2), size: 100, hits: 1, age: 100},  // cold but small
	})
	c.ShrinkTo(1000)
	if _, ok := c.items[ObjKey(1)]; ok {
		t.Error("oversized item must be discarded regardless of probability")
	}
	if _, ok := c.items[ObjKey(2)]; !ok {
		t.Error("fitting item should survive")
	}
}

// TestProbEstimator: prob = hits / queries lived, floored at one query.
func TestProbEstimator(t *testing.T) {
	it := &Item{Hits: 10, InsertedAt: 90}
	if got := it.Prob(100); got != 1.0 {
		t.Errorf("prob = %v, want 1.0", got)
	}
	if got := it.Prob(90); got != 10.0 {
		t.Errorf("zero-age prob = %v, want hits/1", got)
	}
}

// TestItemKeyString covers the diagnostic formatting.
func TestItemKeyString(t *testing.T) {
	if NodeKey(5).String() != "node:5" || ObjKey(7).String() != "obj:7" {
		t.Error("ItemKey.String broken")
	}
	if NodeKey(5) == ObjKey(5) {
		t.Error("node and object keys must differ")
	}
	_ = rtree.InvalidNode
}

// evictGRD3Reference is evictGRD3 as it stood before the candidate heap: a
// scan for oversized items, the leaves sorted by (prob, key) through
// sort.Slice and pushed into the FIFO-tie-broken pq.Queue, and the kept
// benefit summed over the map. The differential tests below hold the
// production eviction to its victims. It counts what it exercised.
func (c *Cache) evictGRD3Reference(seen *evictionCoverage) {
	now := c.querySeq

	// Step 1: discard items that can never fit.
	var oversized []ItemKey
	for key, it := range c.items {
		if it.Size > c.capacity {
			oversized = append(oversized, key)
		}
	}
	for _, key := range oversized {
		seen.oversized += c.remove(key)
	}

	// Step 2: queue the leaf items by prob (deterministic order: prob, key).
	var leaves []ItemKey
	for key, it := range c.items {
		if it.CachedChildren == 0 {
			leaves = append(leaves, key)
		}
	}
	sort.Slice(leaves, func(i, j int) bool {
		pi, pj := c.items[leaves[i]].Prob(now), c.items[leaves[j]].Prob(now)
		if pi != pj {
			return pi < pj
		}
		return keyLess(leaves[i], leaves[j])
	})
	var g pq.Queue[ItemKey]
	for _, key := range leaves {
		g.Push(c.items[key].Prob(now), key)
	}

	// Steps 3-5: pop, remove, promote parents.
	var last *Item
	for c.used > c.capacity && g.Len() > 0 {
		_, key := g.Pop()
		it, ok := c.items[key]
		if !ok || it.CachedChildren != 0 {
			continue
		}
		if last != nil && last.Prob(now) == it.Prob(now) {
			seen.tiedVictims++
		}
		parentKey := it.Parent
		snapshot := *it
		last = &snapshot
		c.remove(key)
		if parentKey != (ItemKey{}) {
			if parent, ok := c.items[parentKey]; ok && parent.CachedChildren == 0 {
				g.Push(parent.Prob(now), parentKey)
				seen.promotions++
			}
		}
	}

	// Step 6: the greedy correction — if the last victim alone is worth
	// more than everything kept, keep it instead (it must fit on its own,
	// since everything else is dropped).
	if last == nil || last.Size > c.capacity {
		return
	}
	var keptBenefit float64
	for _, it := range c.items {
		keptBenefit += it.Prob(now) * float64(it.Size)
	}
	if last.Prob(now)*float64(last.Size) > keptBenefit {
		var all []ItemKey
		for key := range c.items {
			all = append(all, key)
		}
		for _, key := range all {
			c.remove(key)
		}
		keep := *last
		keep.CachedChildren = 0
		keep.Parent = ItemKey{}
		c.add(&keep)
		seen.corrections++
	}
}

// evictionCoverage counts the cases a differential run went through.
type evictionCoverage struct {
	oversized, tiedVictims, promotions, corrections int
}

// sameCaches compares everything eviction can touch: the item set with each
// item's metadata and cut, the bytes used and the operation count.
func sameCaches(a, b *Cache) error {
	if a.used != b.used || a.Ops != b.Ops || len(a.items) != len(b.items) {
		return fmt.Errorf("used %d/%d, ops %d/%d, items %d/%d", a.used, b.used, a.Ops, b.Ops, len(a.items), len(b.items))
	}
	for key, x := range a.items {
		y, ok := b.items[key]
		if !ok {
			return fmt.Errorf("%v kept on one side only", key)
		}
		xm, ym := *x, *y
		xm.pos, ym.pos = 0, 0 // the order of removals inside one eviction moves list positions
		if !reflect.DeepEqual(xm, ym) {
			return fmt.Errorf("%v differs: %+v vs %+v", key, xm, ym)
		}
	}
	return nil
}

// TestGRD3MatchesReferenceOnForests runs production and reference eviction
// over copies of random forests built to collide: a handful of distinct
// probabilities (zero among them), parents as probable as unrelated leaves,
// and capacities from "drop one item" down to "keep one item", where the
// step-6 correction lives. One victim too many or a tie resolved the other
// way leaves a different item set.
func TestGRD3MatchesReferenceOnForests(t *testing.T) {
	r := rand.New(rand.NewSource(1601))
	var seen evictionCoverage
	for trial := 0; trial < 400; trial++ {
		base := buildTiedForest(r)
		capacity := base.used - 1 - r.Intn(base.used)
		if trial%4 == 0 {
			capacity = base.used - 1 // exactly the first victim in pop order
		}
		got, want := cloneForest(base, GRD3), cloneForest(base, GRD3)
		got.ShrinkTo(capacity)
		want.capacity = capacity
		want.evictGRD3Reference(&seen)
		if err := sameCaches(got, want); err != nil {
			t.Fatalf("trial %d, capacity %d of %d: %v", trial, capacity, base.used, err)
		}
	}
	if seen.oversized == 0 || seen.tiedVictims == 0 || seen.promotions == 0 || seen.corrections == 0 {
		t.Fatalf("the forests missed a case: %+v", seen)
	}
}

// buildTiedForest is buildRandomForest without the distinct probabilities:
// every item's hit count is 0..2 and its age one of two.
func buildTiedForest(r *rand.Rand) *Cache {
	c := NewCache(0, GRD3, wire.DefaultSizeModel())
	c.querySeq = 1000
	var nodes []ItemKey
	for i, n := 0, 8+r.Intn(40); i < n; i++ {
		it := &Item{
			Size:       100 + r.Intn(900),
			InsertedAt: 998 + uint64(r.Intn(2)),
			Hits:       r.Intn(3),
		}
		if len(nodes) > 0 && r.Intn(3) > 0 {
			it.Parent = nodes[r.Intn(len(nodes))]
		}
		if r.Intn(3) == 0 {
			it.Key = NodeKey(rtree.NodeID(i + 1))
			nodes = append(nodes, it.Key)
		} else {
			it.Key = ObjKey(rtree.ObjectID(i + 1))
		}
		c.place(it)
	}
	c.capacity = c.used
	return c
}

// TestGRD3MatchesReferenceOnClientRun drives two clients from one seed, one
// evicting with the production code and one with the reference, through what
// a cache lives through: shipped responses and the hits of a walk that turns
// back on itself, invalidations, ShrinkTo by one byte and by a half, and
// stretches where hit counts are wiped so that every leaf ties. After every
// step both caches hold the same items with the same metadata, and both
// clients have reported the same thing.
func TestGRD3MatchesReferenceOnClientRun(t *testing.T) {
	w := newWorld(t, 1602, 1500, server.AdaptiveForm)
	const capacity = 60_000 // some forty objects: an eviction on most misses
	prod, ref := w.newClient(capacity, GRD3), w.newClient(capacity, GRD3)
	ref.cfg.ID = 2 // the server adapts per client; the two histories stay apart
	var seen evictionCoverage

	// evictRef brings the reference cache under limit the old way.
	evictRef := func(limit int) {
		ref.cache.capacity = limit
		if ref.cache.used > limit {
			ref.cache.evictGRD3Reference(&seen)
		}
	}
	r := rand.New(rand.NewSource(1603))
	pos := geom.Pt(0.5, 0.5)
	for step := 0; step < 1200; step++ {
		switch op := r.Intn(20); {
		case op < 14: // a query a short hop away
			pos = geom.Pt(pos.X+(r.Float64()-0.5)*0.04, pos.Y+(r.Float64()-0.5)*0.04)
			q := randomQuery(r)
			switch q.Kind {
			case query.Range:
				q.Window = geom.RectFromCenter(pos, 0.05, 0.05)
			case query.KNN:
				q.Center = pos
			default:
				q.JoinWindow = geom.RectFromCenter(pos, 0.08, 0.08)
			}
			got, err := prod.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			// The reference client inserts without a limit and evicts after.
			ref.cache.capacity = math.MaxInt
			want, err := ref.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			evictRef(capacity)
			// The report's share of cache operations ends before the late
			// eviction; sameCaches compares the running total.
			got.CacheOps, want.CacheOps = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: reports differ:\n%+v\n%+v", step, got, want)
			}
		case op < 16: // the server invalidates a few cached items
			var nodes []rtree.NodeID
			var objs []rtree.ObjectID
			for _, it := range prod.cache.list {
				switch {
				case r.Intn(12) > 0:
				case it.Key.IsNode():
					nodes = append(nodes, it.Key.Node)
				default:
					objs = append(objs, it.Key.Obj)
				}
			}
			prod.cache.Invalidate(nodes, objs)
			ref.cache.Invalidate(nodes, objs)
		case op < 18: // shrink by one byte (one victim, the head of the order) or by half
			limit := prod.cache.used - 1
			if r.Intn(3) == 0 {
				limit = prod.cache.used / 2
			}
			prod.cache.ShrinkTo(limit)
			prod.cache.capacity = capacity
			evictRef(limit)
			ref.cache.capacity = capacity
		default: // every item forgets its hits: all leaves tie at probability zero
			for _, c := range []*Cache{prod.cache, ref.cache} {
				for _, it := range c.list {
					it.Hits = 0
				}
			}
		}
		if err := sameCaches(prod.cache, ref.cache); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := prod.cache.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if seen.tiedVictims == 0 || seen.promotions == 0 {
		t.Fatalf("the run missed a case: %+v", seen)
	}
}
