package core

import (
	"math"

	"repro/internal/geom"
)

// Policy selects the cache replacement scheme (Section 5 and Figure 10).
type Policy uint8

const (
	// GRD3 is the paper's efficient 2-approximation for the constrained
	// knapsack problem: evict leaf items with the lowest access probability.
	GRD3 Policy = iota + 1
	// GRD2 is the reference EBRS-based greedy GRD3 is proved equivalent to;
	// it is kept for the equivalence tests and ablations.
	GRD2
	// LRU evicts the least recently used item (with its descendants).
	LRU
	// MRU evicts the most recently used item (always the worst; Figure 10).
	MRU
	// FAR evicts the item whose region is farthest from the client's
	// current position (Ren & Dunham's location-dependent policy).
	FAR
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case GRD3:
		return "GRD3"
	case GRD2:
		return "GRD2"
	case LRU:
		return "LRU"
	case MRU:
		return "MRU"
	case FAR:
		return "FAR"
	default:
		return "Policy(?)"
	}
}

// evictToCapacity brings the cache back under its byte capacity using the
// configured policy. Every policy honors the constrained-knapsack rule:
// evicting an item evicts its cached descendants.
func (c *Cache) evictToCapacity() {
	if c.used <= c.capacity {
		return
	}
	switch c.policy {
	case GRD2:
		c.evictGRD2()
	case LRU:
		c.evictScan(func(it *Item) float64 { return float64(it.LastUsed) }, false)
	case MRU:
		c.evictScan(func(it *Item) float64 { return float64(it.LastUsed) }, true)
	case FAR:
		c.evictScan(func(it *Item) float64 {
			return geom.MinDist(c.position, it.Region)
		}, true)
	default:
		c.evictGRD3()
	}
}

// victim is a GRD3 eviction candidate: an item without cached children, its
// access probability at the time of the eviction and its size.
type victim struct {
	prob     float64
	promoted int // 0 for an item that was a leaf from the start, else the order of promotion
	size     int
	key      ItemKey
}

// before is GRD3's pop order, a total one: ascending probability, then the
// original leaves in key order, then promoted parents in promotion order.
func (v victim) before(w victim) bool {
	if v.prob != w.prob {
		return v.prob < w.prob
	}
	if v.promoted != w.promoted {
		return v.promoted < w.promoted
	}
	return keyLess(v.key, w.key)
}

// siftDown restores the heap property of h below position i: h is a
// min-heap in pop order, or with last a max-heap. before is a total order on
// distinct victims, so "not before" is "after".
func siftDown(h []victim, i int, last bool) {
	for {
		top := i
		if l := 2*i + 1; l < len(h) && h[l].before(h[top]) != last {
			top = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(h[top]) != last {
			top = r
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// pushLast adds v to the max-heap h.
func pushLast(h []victim, v victim) []victim {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[up].before(h[i]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	return h
}

// evictGRD3 implements Definition 5.1. Leaf items (no cached children) sit
// in a priority queue keyed by access probability; removing a parent's last
// child promotes the parent into the queue. The final step is the standard
// knapsack greedy correction.
func (c *Cache) evictGRD3() {
	now := c.querySeq

	// Steps 1 and 2 in one pass over the items: discard those that can never
	// fit, and queue the leaf items the pops can reach, each prob computed
	// once. Every pop frees its item's bytes, so the pops end before they
	// run through the fewest lowest leaves, in pop order, whose sizes cover
	// the overflow; and while one of those is queued it pops before every
	// leaf ranked after them all. h holds exactly those leaves, as a
	// max-heap while the pass runs: a leaf ranked after its top is skipped.
	h, kept, over := c.victims[:0], 0, c.used-c.capacity
	for i := 0; i < len(c.list); i++ {
		switch it := c.list[i]; {
		case it.Size > c.capacity:
			// Rare. Removal reorders the list and bares new leaves: start over.
			c.remove(it.Key)
			h, kept, over, i = h[:0], 0, c.used-c.capacity, -1
		case it.CachedChildren == 0:
			v := victim{prob: it.Prob(now), size: it.Size, key: it.Key}
			if kept >= over && len(h) > 0 && h[0].before(v) {
				continue
			}
			h, kept = pushLast(h, v), kept+v.size
			for len(h) > 0 && kept-h[0].size >= over {
				kept -= h[0].size
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
				siftDown(h, 0, true)
			}
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, false)
	}

	// Steps 3-5: pop, remove, promote parents.
	var last Item
	popped, promoted := false, 0
	for c.used > c.capacity && len(h) > 0 {
		last, popped = *c.items[h[0].key], true
		c.remove(last.Key)
		parent := c.items[last.Parent]
		if last.Parent != (ItemKey{}) && parent != nil && parent.CachedChildren == 0 {
			// The parent takes the root's place: a pop and a push in one sift.
			promoted++
			h[0] = victim{prob: parent.Prob(now), promoted: promoted, size: parent.Size, key: parent.Key}
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0, false)
	}
	c.victims = h[:0]

	// Step 6: the greedy correction — if the last victim alone is worth
	// more than everything kept, keep it instead (it must fit on its own,
	// since everything else is dropped). The sum runs in list order, the
	// same in every run, and stops once it decides.
	if !popped || last.Size > c.capacity {
		return
	}
	lastBenefit := last.Prob(now) * float64(last.Size)
	var keptBenefit float64
	for _, it := range c.list {
		if keptBenefit += it.Prob(now) * float64(it.Size); keptBenefit >= lastBenefit {
			break
		}
	}
	if lastBenefit > keptBenefit {
		for len(c.list) > 0 {
			c.remove(c.list[len(c.list)-1].Key)
		}
		keep := last // a leaf when it went; its parent has gone now
		keep.Parent = ItemKey{}
		c.add(&keep)
	}
}

// evictGRD2 is the EBRS-based reference algorithm: repeatedly remove the
// item with the lowest expected bitwise response-time saving, descendants
// included. Quadratic; used in tests and ablations only.
func (c *Cache) evictGRD2() {
	now := c.querySeq
	for c.used > c.capacity && len(c.items) > 0 {
		// children lists for subtree aggregation
		children := make(map[ItemKey][]ItemKey, len(c.items))
		for key, it := range c.items {
			if it.Parent != (ItemKey{}) {
				children[it.Parent] = append(children[it.Parent], key)
			}
		}
		type agg struct{ benefit, size float64 }
		memo := make(map[ItemKey]agg, len(c.items))
		var subtree func(key ItemKey) agg
		subtree = func(key ItemKey) agg {
			if a, ok := memo[key]; ok {
				return a
			}
			it := c.items[key]
			a := agg{
				benefit: it.Prob(now) * float64(it.Size),
				size:    float64(it.Size),
			}
			for _, ck := range children[key] {
				ca := subtree(ck)
				a.benefit += ca.benefit
				a.size += ca.size
			}
			memo[key] = a
			return a
		}
		var victim ItemKey
		haveVictim := false
		best := math.Inf(1)
		for key := range c.items {
			a := subtree(key)
			ebrs := a.benefit / a.size
			if !haveVictim || ebrs < best || (ebrs == best && keyLess(key, victim)) {
				best, victim, haveVictim = ebrs, key, true
			}
		}
		c.remove(victim)
	}
}

// keyLess deterministically orders item keys for tie-breaking.
func keyLess(a, b ItemKey) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Obj < b.Obj
}

// evictScan repeatedly removes the extreme item under score (max when
// highest, else min), cascading to descendants, until the cache fits.
func (c *Cache) evictScan(score func(*Item) float64, highest bool) {
	for c.used > c.capacity && len(c.items) > 0 {
		var victim ItemKey
		haveVictim := false
		best := math.Inf(1)
		if highest {
			best = math.Inf(-1)
		}
		for key, it := range c.items {
			s := score(it)
			better := (highest && s > best) || (!highest && s < best)
			if !haveVictim || better || (s == best && keyLess(key, victim)) {
				best, victim, haveVictim = s, key, true
			}
		}
		c.remove(victim)
	}
}
