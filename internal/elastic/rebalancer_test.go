package elastic

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
)

// fakeCluster scripts a topology: slots, sibling pairs, and counters the
// tests can set directly.
type fakeCluster struct {
	live     []int
	siblings map[int]int // t -> s (and s -> t)
	stats    *metrics.ClusterStats
	nextSlot int

	splitErr error
	splits   []int
	merges   [][2]int
}

func newFakeCluster(n int) *fakeCluster {
	f := &fakeCluster{
		siblings: map[int]int{},
		stats:    metrics.NewClusterStats(n),
		nextSlot: n,
	}
	for s := 0; s < n; s++ {
		f.live = append(f.live, s)
	}
	return f
}

func (f *fakeCluster) LiveShards() []int { return append([]int(nil), f.live...) }
func (f *fakeCluster) SiblingOf(s int) (int, bool) {
	t, ok := f.siblings[s]
	return t, ok
}
func (f *fakeCluster) Stats() *metrics.ClusterStats { return f.stats }

func (f *fakeCluster) SplitShard(s int) error {
	if f.splitErr != nil {
		return f.splitErr
	}
	t := f.nextSlot
	f.nextSlot++
	f.live = append(f.live, t)
	f.siblings[s], f.siblings[t] = t, s
	f.stats.Grow(t + 1)
	// Halve the gauge like a real split would.
	half := f.stats.Shard(s).Objects.Load() / 2
	f.stats.Shard(s).Objects.Add(-half)
	f.stats.Shard(t).Objects.Store(half)
	f.splits = append(f.splits, s)
	return nil
}

func (f *fakeCluster) MergeShards(s, t int) error {
	if f.siblings[t] != s {
		return fmt.Errorf("fake: %d and %d not siblings", s, t)
	}
	out := f.live[:0]
	for _, x := range f.live {
		if x != t {
			out = append(out, x)
		}
	}
	f.live = out
	delete(f.siblings, s)
	delete(f.siblings, t)
	f.stats.Shard(s).Objects.Add(f.stats.Shard(t).Objects.Load())
	f.stats.Shard(t).Objects.Store(0)
	f.merges = append(f.merges, [2]int{s, t})
	return nil
}

func TestRebalancerConfigValidation(t *testing.T) {
	f := newFakeCluster(2)
	if _, err := New(nil, Config{SplitObjects: 10}); err == nil {
		t.Fatal("nil cluster accepted")
	}
	if _, err := New(f, Config{}); err == nil {
		t.Fatal("no SplitObjects accepted")
	}
	if _, err := New(f, Config{SplitObjects: 100, MergeObjects: 80}); err == nil {
		t.Fatal("flapping MergeObjects accepted")
	}
	if _, err := New(f, Config{SplitObjects: 100, MergeObjects: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRebalancerSplitsOnObjects(t *testing.T) {
	f := newFakeCluster(2)
	f.stats.Shard(0).Objects.Store(90)
	f.stats.Shard(1).Objects.Store(500)
	var events []Event
	rb, err := New(f, Config{
		SplitObjects: 200,
		Cooldown:     10 * time.Second,
		OnEvent:      func(ev Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	if err := rb.Step(now); err != nil {
		t.Fatal(err)
	}
	if len(f.splits) != 1 || f.splits[0] != 1 {
		t.Fatalf("splits = %v, want [1]", f.splits)
	}
	if len(events) != 1 || events[0].Kind != "split" || events[0].Shard != 1 || events[0].Objects != 500 {
		t.Fatalf("events = %+v", events)
	}
	// Inside the cooldown nothing else happens, even though shard 1 halved
	// to 250 and still sits over the trigger.
	if err := rb.Step(now.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(f.splits) != 1 {
		t.Fatalf("cooldown violated: splits = %v", f.splits)
	}
	// After the cooldown the remaining pressure splits again.
	if err := rb.Step(now.Add(11 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(f.splits) != 2 {
		t.Fatalf("splits = %v, want two", f.splits)
	}
	if rb.Splits() != 2 {
		t.Fatalf("Splits() = %d", rb.Splits())
	}
}

func TestRebalancerMergesColdSiblings(t *testing.T) {
	f := newFakeCluster(2)
	f.stats.Shard(0).Objects.Store(600)
	rb, err := New(f, Config{SplitObjects: 500, MergeObjects: 100, Cooldown: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(3000, 0)
	if err := rb.Step(now); err != nil {
		t.Fatal(err)
	}
	if len(f.splits) != 1 {
		t.Fatalf("splits = %v", f.splits)
	}
	// The split pair (0, 2) cools down to a combined 60 objects: merge.
	f.stats.Shard(0).Objects.Store(30)
	f.stats.Shard(2).Objects.Store(30)
	if err := rb.Step(now.Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(f.merges) != 1 || f.merges[0] != [2]int{0, 2} {
		t.Fatalf("merges = %v, want [[0 2]]", f.merges)
	}
	if rb.Merges() != 1 {
		t.Fatalf("Merges() = %d", rb.Merges())
	}
	// Nothing left to do: pair retired, shard 1 empty but rootless sibling.
	if err := rb.Step(now.Add(4 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(f.merges) != 1 || len(f.splits) != 1 {
		t.Fatalf("extra ops: splits=%v merges=%v", f.splits, f.merges)
	}
}

func TestRebalancerMinShardsFloor(t *testing.T) {
	f := newFakeCluster(2)
	f.siblings[0], f.siblings[1] = 1, 0 // root pair, mergeable
	rb, err := New(f, Config{SplitObjects: 1 << 40, MergeObjects: 100, MinShards: 2, Cooldown: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Step(time.Unix(4000, 0)); err != nil {
		t.Fatal(err)
	}
	if len(f.merges) != 0 {
		t.Fatalf("merged below MinShards: %v", f.merges)
	}
}

func TestRebalancerSurfacesErrors(t *testing.T) {
	f := newFakeCluster(1)
	f.stats.Shard(0).Objects.Store(1000)
	f.splitErr = errors.New("boom")
	var events []Event
	rb, err := New(f, Config{SplitObjects: 100, OnEvent: func(ev Event) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Step(time.Unix(5000, 0)); err == nil {
		t.Fatal("split error swallowed")
	}
	if len(events) != 1 || events[0].Err == nil {
		t.Fatalf("events = %+v", events)
	}
	if rb.Splits() != 0 {
		t.Fatal("failed split counted")
	}
}
