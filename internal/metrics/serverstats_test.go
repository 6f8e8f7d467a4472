package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{1500 * time.Nanosecond, 1}, // rounds up: 2µs bucket covers it
		{2 * time.Microsecond, 1},
		{2900 * time.Nanosecond, 2}, // rounds up to 3µs, bucket upper 4µs
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Durations beyond the last bucket bound must clamp, not panic.
	if got := bucketFor(500 * time.Hour); got != histBuckets-1 {
		t.Errorf("huge duration landed in bucket %d", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 99 fast observations, 1 slow one.
	for i := 0; i < 99; i++ {
		h.Observe(10 * time.Microsecond)
	}
	h.Observe(100 * time.Millisecond)

	if n := h.Count(); n != 100 {
		t.Fatalf("count = %d", n)
	}
	if p50 := h.Quantile(0.50); p50 > 16*time.Microsecond {
		t.Errorf("p50 = %v, want <= 16µs bucket bound", p50)
	}
	// p99 rank is 99, still within the fast bucket; p100 must see the tail.
	if p100 := h.Quantile(1.0); p100 < 100*time.Millisecond {
		t.Errorf("p100 = %v, want >= 100ms", p100)
	}
	if mean := h.Mean(); mean < 500*time.Microsecond || mean > 2*time.Millisecond {
		t.Errorf("mean = %v, want ~1ms", mean)
	}
}

// TestHistogramQuantileNearestRank pins the rank to the smallest one >= q·N:
// rounding q·N down would let p999 of 99 fast samples and one slow sample,
// or p99 of nine fast samples and one slow sample, miss the slow one.
func TestHistogramQuantileNearestRank(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(10 * time.Microsecond)
	}
	h.Observe(100 * time.Millisecond)
	if p999 := h.Quantile(0.999); p999 < 100*time.Millisecond {
		t.Errorf("p999 of 99×10µs + 1×100ms = %v, want >= 100ms", p999)
	}
	if p99 := h.Quantile(0.99); p99 > 16*time.Microsecond {
		t.Errorf("p99 of 99×10µs + 1×100ms = %v, want <= 16µs (rank 99 is fast)", p99)
	}

	var g Histogram
	for i := 0; i < 9; i++ {
		g.Observe(time.Microsecond)
	}
	g.Observe(time.Second)
	if p99 := g.Quantile(0.99); p99 < time.Second {
		t.Errorf("p99 of 9×1µs + 1×1s = %v, want >= 1s", p99)
	}
	// Exact ranks stay exact: 0.7·10 is 7 (not 8) and 0.5·4 is 2 (not 3).
	if p70 := g.Quantile(0.7); p70 > time.Microsecond {
		t.Errorf("p70 of 9×1µs + 1×1s = %v, want <= 1µs", p70)
	}
	var four Histogram
	four.Observe(time.Microsecond)
	four.Observe(time.Microsecond)
	four.Observe(time.Second)
	four.Observe(time.Second)
	if p50 := four.Quantile(0.5); p50 > time.Microsecond {
		t.Errorf("p50 of 2×1µs + 2×1s = %v, want <= 1µs (rank 2)", p50)
	}
}

func TestHistogramQuantileInterpolates(t *testing.T) {
	// Two distributions whose p99 lands in the same base-2 bucket must
	// still report distinguishable values: the quantile interpolates by
	// rank position inside the crossing bucket instead of snapping to its
	// shared upper edge.
	var all, mixed Histogram
	for i := 0; i < 100; i++ {
		all.Observe(10 * time.Microsecond) // bucket (8µs, 16µs]
	}
	for i := 0; i < 10; i++ {
		mixed.Observe(time.Microsecond) // bucket (0, 1µs]
	}
	for i := 0; i < 90; i++ {
		mixed.Observe(10 * time.Microsecond)
	}
	// mixed's rank-50 sits at position 40/90 of the slow bucket, all's at
	// 50/100 — the faster distribution must report the smaller p50.
	pm, pa := mixed.Quantile(0.50), all.Quantile(0.50)
	if pm >= pa {
		t.Errorf("p50 mixed=%v all=%v, want mixed < all", pm, pa)
	}
	for _, h := range []*Histogram{&all, &mixed} {
		if q := h.Quantile(0.50); q <= 8*time.Microsecond || q > 16*time.Microsecond {
			t.Errorf("p50 = %v, want within the crossing bucket (8µs, 16µs]", q)
		}
	}
	// Monotone in q even inside one bucket.
	if p50, p99 := all.Quantile(0.50), all.Quantile(0.99); p50 > p99 {
		t.Errorf("quantiles out of order within a bucket: p50=%v p99=%v", p50, p99)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.99); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	if m := h.Mean(); m != 0 {
		t.Errorf("empty mean = %v", m)
	}
}

func TestServerStatsConcurrent(t *testing.T) {
	var st ServerStats
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				st.Requests.Add(1)
				st.BytesIn.Add(10)
				st.BytesOut.Add(100)
				st.Latency.Observe(time.Duration(i%50) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	snap := st.Snapshot()
	if snap.Requests != goroutines*per {
		t.Errorf("requests = %d, want %d", snap.Requests, goroutines*per)
	}
	if got := st.Latency.Count(); got != goroutines*per {
		t.Errorf("latency count = %d, want %d", got, goroutines*per)
	}
	if snap.BytesIn != goroutines*per*10 || snap.BytesOut != goroutines*per*100 {
		t.Errorf("byte counters = %d/%d, want %d/%d",
			snap.BytesIn, snap.BytesOut, goroutines*per*10, goroutines*per*100)
	}
	if snap.P50 == 0 || snap.P99 < snap.P50 {
		t.Errorf("quantiles inconsistent: p50=%v p99=%v", snap.P50, snap.P99)
	}
	if snap.String() == "" {
		t.Error("empty String()")
	}
}
