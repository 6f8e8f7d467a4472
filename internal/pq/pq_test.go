package pq

import (
	"encoding/binary"
	"fmt"
	"math"
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
	if k := q.MinKey(); k != 2 {
		t.Errorf("MinKey = %v", k)
	}
	if q.Len() != 2 {
		t.Error("MinKey must not remove")
	}
}

func TestResetEmpties(t *testing.T) {
	var q Queue[int]
	q.Push(1, 1)
	q.Push(0, 2)
	q.Push(2, 3)
	q.Reset()
	if q.Len() != 0 {
		t.Error("Reset did not empty queue")
	}
	q.Push(3, 4)
	q.Push(0, 5)
	for _, want := range []int{5, 4} {
		if _, v := q.Pop(); v != want {
			t.Fatalf("after Reset popped %d, want %d", v, want)
		}
	}
}

func TestDrainInKeyOrder(t *testing.T) {
	var q Queue[int]
	keys := []float64{9, 0, 5, -3, 7, 0, math.Copysign(0, -1), -3}
	for i, k := range keys {
		q.Push(k, i)
	}
	want := []int{3, 7, 1, 5, 6, 2, 4, 0} // indices by key, ties (both zeros among them) in push order
	for _, w := range want {
		k, v := q.Pop()
		if v != w || math.Float64bits(k) != math.Float64bits(keys[w]) {
			t.Fatalf("popped (%v, %d), want (%v, %d)", k, v, keys[w], w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

// TestWarmQueueDoesNotAllocate: once a queue has held a round's worth of
// items, heap and lane alike, further rounds of pushes, pops and resets
// allocate nothing — the best-first engine's warm path relies on it.
func TestWarmQueueDoesNotAllocate(t *testing.T) {
	var q Queue[wide]
	round := func() {
		for i := 0; i < 200; i++ {
			q.Push(float64(i%3), wide{id: i}) // a third keyed zero
			if i%4 == 3 {
				q.Pop()
			}
		}
		for q.Len() > 100 {
			q.Pop()
		}
		q.Reset()
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("a warm round allocated %.1f times", allocs)
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

// refQueue is the queue this package had before values moved into a slab
// and zero keys into a lane: one heap of (key, seq, value) whose sifts swap
// whole items. It is the reference the differential tests hold Queue to.
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

func (q *refQueue[T]) MinKey() float64 { return q.items[0].key }

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

// wide is as large as the element the best-first engine queues (136 bytes).
type wide struct {
	id  int
	pad [16]int64
}

// testKey draws a key the way best-first runs key their elements, and worse:
// mostly exact zeros of either sign (overlapping rectangles), a few small
// distances repeated often, and negatives, which must pop ahead of the lane.
func testKey(rnd *rand.Rand) float64 {
	switch u := rnd.Intn(10); {
	case u < 4:
		return 0
	case u < 5:
		return math.Copysign(0, -1)
	case u < 7:
		return float64(1 + rnd.Intn(6)) // duplicates
	case u < 8:
		return -float64(1 + rnd.Intn(3))
	default:
		return rnd.Float64() - 0.25
	}
}

// TestMatchesReferenceQueue drives Queue and refQueue with one operation
// stream — zero-heavy keys, long runs of ties, interleaved pops and peeks,
// pre-growth, drains, resets — and requires the same (key, value) from every
// Pop and MinKey, key bits included: the kNN handover serializes queue contents
// in pop order, and a run is only reproducible if ties pop in push order.
func TestMatchesReferenceQueue(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		var q Queue[wide]
		var ref refQueue[wide]
		next, ties, reused, laneMax := 0, 0, 0, 0
		push := func(key float64) {
			next++
			v := wide{id: next}
			v.pad[next%len(v.pad)] = int64(next)
			reused += len(q.free)
			q.Push(key, v)
			ref.Push(key, v)
			laneMax = max(laneMax, q.nlane)
		}
		pop := func(step int) {
			k, v := q.Pop()
			rk, rv := ref.Pop()
			if math.Float64bits(k) != math.Float64bits(rk) || v != rv {
				t.Fatalf("seed %d step %d: Pop = (%v, %d), reference (%v, %d)", seed, step, k, v.id, rk, rv.id)
			}
		}
		for step := 0; step < 6000; step++ {
			switch op := rnd.Intn(100); {
			case op < 40:
				push(testKey(rnd))
			case op < 45:
				key := testKey(rnd)
				for n := 5 + rnd.Intn(60); n > 0; n-- {
					push(key)
					ties++
				}
			case op < 85:
				if ref.Len() > 0 {
					pop(step)
				}
			case op < 90:
				if ref.Len() == 0 {
					continue
				}
				if k, rk := q.MinKey(), ref.MinKey(); math.Float64bits(k) != math.Float64bits(rk) {
					t.Fatalf("seed %d step %d: MinKey = %v, reference %v", seed, step, k, rk)
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
				for ref.Len() > 0 {
					pop(step)
				}
			default:
				q.Reset()
				ref.Reset()
			}
			if q.Len() != ref.Len() {
				t.Fatalf("seed %d step %d: Len = %d, reference %d", seed, step, q.Len(), ref.Len())
			}
			if len(q.vals) != len(q.items)+q.nlane+len(q.free) {
				t.Fatalf("seed %d step %d: slab of %d slots for %d heap items, %d lane items and %d free slots",
					seed, step, len(q.vals), len(q.items), q.nlane, len(q.free))
			}
			if len(q.lane) > max(2*laneMax, 8) {
				t.Fatalf("seed %d step %d: lane ring of %d slots, at most %d zero-keyed items ever queued",
					seed, step, len(q.lane), laneMax)
			}
		}
		if ties == 0 || reused == 0 || laneMax == 0 {
			t.Fatalf("seed %d: stream had %d tied pushes, %d slot reuses and at most %d lane items; it must have all three",
				seed, ties, reused, laneMax)
		}
	}
}

// FuzzQueueMatchesReference runs a fuzzed script of pushes and pops against
// refQueue. A byte below 0x40 pops (comparing MinKey with the reference's
// minimum key and with the Pop that follows), one below 0x80 pushes a key
// from a table of zeros, ties, negatives and infinities, and any other byte
// pushes the float64 whose bits are the next eight bytes. Without a NaN key the two queues must pop the same (key,
// value) sequence; once a NaN is queued the order depends on the heap's
// arrangement, and every pushed item must still pop exactly once.
func FuzzQueueMatchesReference(f *testing.F) {
	f.Add([]byte{0x40, 0x41, 0x42, 0x43, 0x00, 0x44, 0x45, 0x00, 0x46, 0x47})
	f.Add([]byte{0x40, 0x41, 0x40, 0x41, 0x44, 0x00, 0x00, 0x42, 0x40, 0x00})
	f.Add([]byte{0x40, 0x80, 0x01, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0x41, 0x44, 0x00, 0x00})
	table := [8]float64{0, math.Copysign(0, -1), 1, 2, -1, 0.5, math.Inf(1), math.Inf(-1)}
	f.Fuzz(func(t *testing.T, script []byte) {
		var q Queue[int]
		var ref refQueue[int]
		nan := false
		popped := map[int]bool{}
		pushed := 0
		pop := func() {
			mk, rmk := q.MinKey(), ref.MinKey()
			k, v := q.Pop()
			rk, rv := ref.Pop()
			if math.Float64bits(mk) != math.Float64bits(k) {
				t.Fatalf("MinKey = %v, then Pop = (%v, %d)", mk, k, v)
			}
			if !nan && math.Float64bits(mk) != math.Float64bits(rmk) {
				t.Fatalf("MinKey = %v, reference %v", mk, rmk)
			}
			if popped[v] || v < 1 || v > pushed {
				t.Fatalf("popped item %d, pushed 1..%d, popped before: %v", v, pushed, popped[v])
			}
			popped[v] = true
			if !nan && (math.Float64bits(k) != math.Float64bits(rk) || v != rv) {
				t.Fatalf("Pop = (%v, %d), reference (%v, %d)", k, v, rk, rv)
			}
		}
		for len(script) > 0 {
			op := script[0]
			script = script[1:]
			switch {
			case op < 0x40:
				if ref.Len() > 0 {
					pop()
				}
				continue
			case op < 0x80:
				pushed++
				q.Push(table[op&7], pushed)
				ref.Push(table[op&7], pushed)
			default:
				var b [8]byte
				script = script[copy(b[:], script):]
				key := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
				nan = nan || math.IsNaN(key)
				pushed++
				q.Push(key, pushed)
				ref.Push(key, pushed)
			}
			if q.Len() != ref.Len() {
				t.Fatalf("Len = %d, reference %d", q.Len(), ref.Len())
			}
		}
		for ref.Len() > 0 {
			pop()
		}
		if q.Len() != 0 || len(popped) != pushed {
			t.Fatalf("%d items left after draining; %d of %d popped", q.Len(), len(popped), pushed)
		}
	})
}

// TestPopAndResetDropReferences: a popped or reset value must not stay
// reachable through the slab, or a pooled query.Runner would pin whatever
// its last query queued.
func TestPopAndResetDropReferences(t *testing.T) {
	var q Queue[*wide]
	collected := make(chan int, 4)
	push := func(key float64, id int) {
		v := &wide{id: id}
		runtime.SetFinalizer(v, func(v *wide) { collected <- v.id })
		q.Push(key, v)
	}
	push(0, 1) // the zero-key lane
	push(1, 2) // the heap
	push(0, 3)
	push(2, 4)
	q.Pop() // value 1, from the lane: its slot goes to the free list
	q.Pop() // value 3, from the lane
	q.Pop() // value 2, from the heap
	for _, v := range q.vals[:cap(q.vals)] {
		if v != nil && v.id != 4 {
			t.Fatalf("Pop left value %d in its slab slot", v.id)
		}
	}
	q.Reset() // value 4
	for i, v := range q.vals[:cap(q.vals)] {
		if v != nil {
			t.Fatalf("Reset left value %d in slab slot %d", v.id, i)
		}
	}
	for freed, tries := 0, 0; freed < 4; tries++ {
		if tries == 100 {
			t.Fatalf("%d of 4 values still reachable after Pop and Reset", 4-freed)
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
// value), 136 (a query.Elem-sized one). With values in the slab the three
// read alike; the ref rows are the queue that sifted whole items.
func BenchmarkQueueBySize(b *testing.B) {
	benchQueue[[1]int64](b, "slab", &Queue[[1]int64]{})
	benchQueue[[9]int64](b, "slab", &Queue[[9]int64]{})
	benchQueue[[17]int64](b, "slab", &Queue[[17]int64]{})
	benchQueue[[1]int64](b, "ref", &refQueue[[1]int64]{})
	benchQueue[[9]int64](b, "ref", &refQueue[[9]int64]{})
	benchQueue[[17]int64](b, "ref", &refQueue[[17]int64]{})
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
