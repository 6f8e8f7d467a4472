package pq

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestPushPopOrdered(t *testing.T) {
	var q Queue[string]
	q.Push(3, "c")
	q.Push(1, "a")
	q.Push(2, "b")
	want := []string{"a", "b", "c"}
	for i, w := range want {
		k, v := q.Pop()
		if v != w {
			t.Errorf("pop %d = %q (key %v), want %q", i, v, k, w)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after draining", q.Len())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(1.0, i)
	}
	for i := 0; i < 10; i++ {
		if _, v := q.Pop(); v != i {
			t.Fatalf("equal-key pop order broken: got %d, want %d", v, i)
		}
	}
}

func TestMinPeek(t *testing.T) {
	var q Queue[int]
	q.Push(5, 50)
	q.Push(2, 20)
	if k, v := q.Min(); k != 2 || v != 20 {
		t.Errorf("Min = %v,%v", k, v)
	}
	if q.Len() != 2 {
		t.Error("Min must not remove")
	}
}

func TestResetAndItems(t *testing.T) {
	var q Queue[int]
	q.Push(1, 1)
	q.Push(2, 2)
	if got := q.Items(); len(got) != 2 {
		t.Errorf("Items len = %d", len(got))
	}
	q.Reset()
	if q.Len() != 0 {
		t.Error("Reset did not empty queue")
	}
	q.Push(3, 3)
	if _, v := q.Pop(); v != 3 {
		t.Error("queue unusable after Reset")
	}
}

func TestPopAll(t *testing.T) {
	var q Queue[int]
	keys := []float64{9, 1, 5, 3, 7}
	for i, k := range keys {
		q.Push(k, i)
	}
	got := q.PopAll()
	want := []int{1, 3, 2, 4, 0} // indices sorted by their keys
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PopAll = %v, want %v", got, want)
		}
	}
}

// Property: popping yields keys in nondecreasing order, matching sort.
func TestHeapOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(n uint8) bool {
		var q Queue[float64]
		keys := make([]float64, int(n)%64+1)
		for i := range keys {
			keys[i] = float64(r.Intn(16)) // duplicates likely
			q.Push(keys[i], keys[i])
		}
		sort.Float64s(keys)
		for _, want := range keys {
			k, v := q.Pop()
			if k != want || v != want {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleaved push/pop keeps the min invariant.
func TestInterleavedProperty(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	f := func(seed uint16) bool {
		var q Queue[float64]
		var model []float64
		for op := 0; op < 100; op++ {
			if q.Len() == 0 || r.Intn(2) == 0 {
				k := r.Float64()
				q.Push(k, k)
				model = append(model, k)
				sort.Float64s(model)
			} else {
				k, _ := q.Pop()
				if k != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		return q.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// refQueue is the queue this package had before values moved into a slab:
// the heap holds (key, seq, value) and sifts swap whole items. It is the
// reference the differential test holds Queue to.
type refQueue[T any] struct {
	items []refItem[T]
	seq   uint64
}

type refItem[T any] struct {
	key   float64
	seq   uint64
	value T
}

func (q *refQueue[T]) Len() int { return len(q.items) }

func (q *refQueue[T]) Push(key float64, value T) {
	q.seq++
	q.items = append(q.items, refItem[T]{key, q.seq, value})
	q.up(len(q.items) - 1)
}

func (q *refQueue[T]) Min() (float64, T) {
	return q.items[0].key, q.items[0].value
}

func (q *refQueue[T]) Pop() (float64, T) {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	var zero refItem[T]
	q.items[last] = zero
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return top.key, top.value
}

func (q *refQueue[T]) Reset() {
	clear(q.items)
	q.items = q.items[:0]
}

func (q *refQueue[T]) Grow(n int) {
	q.GrowTo(len(q.items) + n)
}

func (q *refQueue[T]) GrowTo(total int) {
	if cap(q.items) >= total {
		return
	}
	newCap := 2 * cap(q.items)
	if newCap < total {
		newCap = total
	}
	if newCap < 8 {
		newCap = 8
	}
	items := make([]refItem[T], len(q.items), newCap)
	copy(items, q.items)
	q.items = items
}

func (q *refQueue[T]) Items() []T {
	out := make([]T, len(q.items))
	for i, it := range q.items {
		out[i] = it.value
	}
	return out
}

func (q *refQueue[T]) PopAll() []T {
	out := make([]T, 0, len(q.items))
	for q.Len() > 0 {
		_, v := q.Pop()
		out = append(out, v)
	}
	return out
}

func (q *refQueue[T]) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (q *refQueue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *refQueue[T]) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}

// wide is as large as the element the best-first engine queues (168 bytes).
type wide struct {
	id  int
	pad [20]int64
}

// TestMatchesReferenceQueue drives Queue and refQueue with one operation
// stream — long runs of tied keys, pops, peeks, resets, pre-growth, drains —
// and requires the same answer from every call and the same Items() heap
// order after every step: the kNN handover serializes that order, and a run
// is only reproducible if ties pop in push order.
func TestMatchesReferenceQueue(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		var q Queue[wide]
		var ref refQueue[wide]
		next, ties, reused := 0, 0, 0
		push := func(key float64) {
			next++
			v := wide{id: next}
			v.pad[next%len(v.pad)] = int64(next)
			reused += len(q.free)
			q.Push(key, v)
			ref.Push(key, v)
		}
		for step := 0; step < 6000; step++ {
			switch op := rnd.Intn(100); {
			case op < 40:
				push(float64(rnd.Intn(8))) // few distinct keys: ties everywhere
			case op < 45:
				key := float64(rnd.Intn(4))
				for n := 5 + rnd.Intn(60); n > 0; n-- {
					push(key)
					ties++
				}
			case op < 85:
				if ref.Len() == 0 {
					continue
				}
				k, v := q.Pop()
				rk, rv := ref.Pop()
				if k != rk || v != rv {
					t.Fatalf("seed %d step %d: Pop = (%v, %d), reference (%v, %d)", seed, step, k, v.id, rk, rv.id)
				}
			case op < 90:
				if ref.Len() == 0 {
					continue
				}
				k, v := q.Min()
				rk, rv := ref.Min()
				if k != rk || v != rv {
					t.Fatalf("seed %d step %d: Min = (%v, %d), reference (%v, %d)", seed, step, k, v.id, rk, rv.id)
				}
			case op < 94:
				n := rnd.Intn(300)
				q.Grow(n)
				ref.Grow(n)
			case op < 97:
				n := rnd.Intn(600)
				q.GrowTo(n)
				ref.GrowTo(n)
			case op < 99:
				if got, want := q.PopAll(), ref.PopAll(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: PopAll differs from the reference", seed, step)
				}
			default:
				q.Reset()
				ref.Reset()
			}
			if q.Len() != ref.Len() {
				t.Fatalf("seed %d step %d: Len = %d, reference %d", seed, step, q.Len(), ref.Len())
			}
			if got, want := q.Items(), ref.Items(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: Items() heap order differs from the reference", seed, step)
			}
			if len(q.vals) != len(q.items)+len(q.free) {
				t.Fatalf("seed %d step %d: slab of %d slots for %d items and %d free slots",
					seed, step, len(q.vals), len(q.items), len(q.free))
			}
		}
		if ties == 0 || reused == 0 {
			t.Fatalf("seed %d: stream had %d tied pushes and %d slot reuses; it must have both", seed, ties, reused)
		}
	}
}

// TestPopAndResetDropReferences: a popped or reset value must not stay
// reachable through the slab, or a pooled query.Runner would pin whatever
// its last query queued.
func TestPopAndResetDropReferences(t *testing.T) {
	var q Queue[*wide]
	collected := make(chan int, 3)
	push := func(key float64, id int) {
		v := &wide{id: id}
		runtime.SetFinalizer(v, func(v *wide) { collected <- v.id })
		q.Push(key, v)
	}
	push(1, 1)
	push(2, 2)
	push(3, 3)
	q.Pop() // value 1: its slot goes to the free list
	for _, v := range q.vals[:cap(q.vals)] {
		if v != nil && v.id == 1 {
			t.Fatal("Pop left the value in its slab slot")
		}
	}
	q.Reset() // values 2 and 3
	for i, v := range q.vals[:cap(q.vals)] {
		if v != nil {
			t.Fatalf("Reset left value %d in slab slot %d", v.id, i)
		}
	}
	for freed, tries := 0, 0; freed < 3; tries++ {
		if tries == 100 {
			t.Fatalf("%d of 3 values still reachable after Pop and Reset", 3-freed)
		}
		runtime.GC()
		select {
		case <-collected:
			freed++
		default:
		}
	}
}

// BenchmarkQueueBySize is the cost of one Push plus one Pop on a heap of
// 1024 items, by value size: 8 bytes (an id), 72 (an rtree.Entry-sized
// value), 168 (a query.Elem-sized one). With values in the slab the three
// read alike; the ref rows are the queue that sifted whole items.
func BenchmarkQueueBySize(b *testing.B) {
	benchQueue[[1]int64](b, "slab", &Queue[[1]int64]{})
	benchQueue[[9]int64](b, "slab", &Queue[[9]int64]{})
	benchQueue[[21]int64](b, "slab", &Queue[[21]int64]{})
	benchQueue[[1]int64](b, "ref", &refQueue[[1]int64]{})
	benchQueue[[9]int64](b, "ref", &refQueue[[9]int64]{})
	benchQueue[[21]int64](b, "ref", &refQueue[[21]int64]{})
}

func benchQueue[T any](b *testing.B, impl string, q interface {
	Push(float64, T)
	Pop() (float64, T)
}) {
	var v T
	b.Run(fmt.Sprintf("%s/%dB", impl, reflect.TypeOf(v).Size()), func(b *testing.B) {
		rnd := rand.New(rand.NewSource(1))
		keys := make([]float64, 4096)
		for i := range keys {
			keys[i] = float64(rnd.Intn(512)) // ties, as best-first distances have
		}
		for i := 0; i < 1024; i++ {
			q.Push(keys[i], v)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Push(keys[i%len(keys)], v)
			_, v = q.Pop()
		}
	})
}
