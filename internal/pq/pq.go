// Package pq implements the small, allocation-friendly priority queues used
// by best-first spatial query processing and by cache replacement.
//
// The queue is a binary min-heap keyed by float64 with deterministic FIFO
// tie-breaking: items pushed earlier pop first among equal keys. Determinism
// matters because experiment runs must be reproducible bit-for-bit and the
// kNN handover protocol serializes queue contents.
package pq

// Queue is a min-heap of T keyed by float64. The zero value is ready to use.
// The heap orders 24-byte handles; a value is written once into a slab slot
// at Push and read once at Pop, so sifting never moves a T, however large
// (the best-first engine queues 168-byte elements).
type Queue[T any] struct {
	items []item  // the heap
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
func (q *Queue[T]) Len() int { return len(q.items) }

// Push inserts value with the given key.
func (q *Queue[T]) Push(key float64, value T) {
	slot := int32(len(q.vals))
	if n := len(q.free); n > 0 {
		slot, q.free = q.free[n-1], q.free[:n-1]
		q.vals[slot] = value
	} else {
		q.vals = append(q.vals, value)
	}
	q.seq++
	q.items = append(q.items, item{key, q.seq, slot})
	q.up(len(q.items) - 1)
}

// Min returns the smallest key and its value without removing it.
// It must not be called on an empty queue.
func (q *Queue[T]) Min() (float64, T) {
	return q.items[0].key, q.vals[q.items[0].slot]
}

// Pop removes and returns the value with the smallest key.
// It must not be called on an empty queue.
func (q *Queue[T]) Pop() (float64, T) {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	value := q.vals[top.slot]
	var zero T
	q.vals[top.slot] = zero // drop the slab's reference
	q.free = append(q.free, top.slot)
	return top.key, value
}

// Reset empties the queue, retaining its backing storage.
func (q *Queue[T]) Reset() {
	clear(q.vals)
	q.vals = q.vals[:0]
	q.free = q.free[:0]
	q.items = q.items[:0]
}

// Grow ensures capacity for at least n items beyond the current length,
// saving the incremental reallocations of a growing heap when the caller
// can estimate the working-set size up front. Capacity grows geometrically
// (at least doubling), so a loop of small Grow calls costs O(log total)
// reallocations, not one per call.
func (q *Queue[T]) Grow(n int) {
	q.GrowTo(len(q.items) + n)
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

// Items returns the queued values in heap order (not sorted). The slice is
// freshly allocated; mutating it does not affect the queue.
func (q *Queue[T]) Items() []T {
	out := make([]T, len(q.items))
	for i := range q.items {
		out[i] = q.vals[q.items[i].slot]
	}
	return out
}

// PopAll drains the queue in ascending key order.
func (q *Queue[T]) PopAll() []T {
	out := make([]T, 0, len(q.items))
	for q.Len() > 0 {
		_, v := q.Pop()
		out = append(out, v)
	}
	return out
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
