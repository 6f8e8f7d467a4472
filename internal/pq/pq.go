// Package pq implements the small, allocation-friendly priority queues used
// by best-first spatial query processing and by cache replacement.
//
// The queue pops in ascending key order with deterministic FIFO
// tie-breaking: items pushed earlier pop first among equal keys. Determinism
// matters because experiment runs must be reproducible bit-for-bit and the
// kNN handover protocol serializes queue contents.
package pq

import "math"

// Queue is a min-priority queue of T keyed by float64. The zero value is
// ready to use.
//
// Items keyed exactly zero (either sign) skip the heap: they wait in a FIFO
// lane, since among themselves they pop in push order anyway. A best-first
// join keys every pair of overlapping rectangles zero, and those are most of
// its pushes. Pop takes the lane's head unless the heap holds a negative
// key, so the pop sequence is the one a single heap gives for every key but
// NaN; a NaN key never orders before anything, so where it pops depends on
// the heap's arrangement, as it always did.
//
// The heap orders 24-byte handles and the lane 4-byte ones; a value is
// written once into a slab slot at Push and read once at Pop, so neither
// moves a T, however large (the best-first engine queues 136-byte elements).
type Queue[T any] struct {
	items []item  // the heap: every item keyed off zero
	lane  []int32 // ring of the zero-keyed items' slab slots, ^slot for -0
	head  int     // lane index of the oldest zero-keyed item
	nlane int     // zero-keyed items queued
	vals  []T     // value slab, indexed by item.slot
	free  []int32 // slab slots vacated by Pop, reused before the slab grows
	seq   uint64
}

type item struct {
	key  float64
	seq  uint64
	slot int32
}

// before is the heap order: ascending key, then push order.
func (a *item) before(b *item) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) + q.nlane }

// Push inserts value with the given key.
func (q *Queue[T]) Push(key float64, value T) {
	slot := int32(len(q.vals))
	if n := len(q.free); n > 0 {
		slot, q.free = q.free[n-1], q.free[:n-1]
		q.vals[slot] = value
	} else {
		q.vals = append(q.vals, value)
	}
	if key == 0 {
		if math.Signbit(key) {
			slot = ^slot
		}
		q.pushLane(slot)
		return
	}
	q.seq++
	q.items = append(q.items, item{key, q.seq, slot})
	q.up(len(q.items) - 1)
}

// pushLane appends a slot to the lane, doubling the ring when it is full:
// the ring never holds more than twice the most zero-keyed items queued.
func (q *Queue[T]) pushLane(slot int32) {
	if q.nlane == len(q.lane) {
		grown := make([]int32, max(2*len(q.lane), 8))
		n := copy(grown, q.lane[q.head:])
		copy(grown[n:], q.lane[:q.head])
		q.lane, q.head = grown, 0
	}
	q.lane[(q.head+q.nlane)&(len(q.lane)-1)] = slot
	q.nlane++
}

// laneFirst reports whether the next item to pop is the lane's head: every
// heap key but a negative one (or NaN) is above zero.
func (q *Queue[T]) laneFirst() bool {
	return q.nlane > 0 && (len(q.items) == 0 || !(q.items[0].key < 0))
}

// laneKey decodes a lane entry into its key and slab slot.
func laneKey(e int32) (float64, int32) {
	if e < 0 {
		return math.Copysign(0, -1), ^e
	}
	return 0, e
}

// MinKey returns the key the next Pop returns, without removing anything or
// reading a value. It must not be called on an empty queue.
func (q *Queue[T]) MinKey() float64 {
	if q.laneFirst() {
		key, _ := laneKey(q.lane[q.head])
		return key
	}
	return q.items[0].key
}

// Pop removes and returns the value with the smallest key.
// It must not be called on an empty queue.
func (q *Queue[T]) Pop() (float64, T) {
	var key float64
	var slot int32
	if q.laneFirst() {
		key, slot = laneKey(q.lane[q.head])
		q.head = (q.head + 1) & (len(q.lane) - 1)
		q.nlane--
	} else {
		top := q.items[0]
		last := len(q.items) - 1
		q.items[0] = q.items[last]
		q.items = q.items[:last]
		if last > 0 {
			q.down(0)
		}
		key, slot = top.key, top.slot
	}
	value := q.vals[slot]
	var zero T
	q.vals[slot] = zero // drop the slab's reference
	q.free = append(q.free, slot)
	return key, value
}

// Reset empties the queue, retaining its backing storage.
func (q *Queue[T]) Reset() {
	clear(q.vals)
	q.vals = q.vals[:0]
	q.free = q.free[:0]
	q.items = q.items[:0]
	q.head, q.nlane = 0, 0
}

// Grow ensures capacity for at least n items beyond the current length,
// saving the incremental reallocations of a growing heap when the caller
// can estimate the working-set size up front. Capacity grows geometrically
// (at least doubling), so a loop of small Grow calls costs O(log total)
// reallocations, not one per call.
func (q *Queue[T]) Grow(n int) {
	q.GrowTo(q.Len() + n)
}

// GrowTo ensures capacity for at least total items, growing geometrically
// like Grow.
func (q *Queue[T]) GrowTo(total int) {
	q.items = growTo(q.items, total)
	// Free slots are filled before the slab grows, so the slab never holds
	// more than the largest number of items queued at once.
	q.vals = growTo(q.vals, total)
}

func growTo[E any](s []E, total int) []E {
	if cap(s) >= total {
		return s
	}
	grown := make([]E, len(s), max(total, 2*cap(s), 8))
	copy(grown, s)
	return grown
}

// up and down sift by moving a hole: they compare exactly what a swapping
// sift compares and leave the heap in exactly the arrangement it would.
func (q *Queue[T]) up(i int) {
	it := q.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(&q.items[parent]) {
			break
		}
		q.items[i] = q.items[parent]
		i = parent
	}
	q.items[i] = it
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	it := q.items[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.items[r].before(&q.items[c]) {
			c = r
		}
		if !q.items[c].before(&it) {
			break
		}
		q.items[i] = q.items[c]
		i = c
	}
	q.items[i] = it
}
