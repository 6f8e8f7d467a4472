package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/wire"
)

func TestPercentile(t *testing.T) {
	var s []int64
	for i := int64(1); i <= 100; i++ {
		s = append(s, i)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %d", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("1..10: got %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9})
	if q1 != 1 || med != 3.5 || q3 != 6 {
		t.Errorf("six values: got %g %g %g, want 1 3.5 6", q1, med, q3)
	}
	if got := spread([]float64{90, 100, 110, 100, 100, 100}); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("spread = %g, want 0.05", got)
	}
}

func TestSliceRates(t *testing.T) {
	// A 6-second window with i+1 completions in the i-th second.
	var ends []int64
	for i := 0; i < nSlices; i++ {
		for j := 0; j <= i; j++ {
			ends = append(ends, int64(i)*1e9+int64(j+1)*1e8)
		}
	}
	rates := sliceRates(ends, 0, 6e9)
	for i, r := range rates {
		if r != float64(i+1) {
			t.Errorf("slice %d: %g ops/s, want %d", i, r, i+1)
		}
	}
	// The completion that ends the window belongs to the last slice.
	if got := sliceRates([]int64{6e9}, 0, 6e9)[nSlices-1]; got != 1 {
		t.Errorf("window-closing completion: last slice has %g", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	outer := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"one", []interval{{110, 150}}, 60},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"parallel shards overlap", []interval{{110, 160}, {120, 180}}, 30},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"unsorted and sticking out", []interval{{150, 250}, {50, 120}}, 30},
		{"outside", []interval{{10, 20}, {300, 400}}, 100},
	} {
		if got := selfTime(outer, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "query_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.08}
	exact := metricDef{Name: "failed_frac", Better: "lower", Bound: 0}
	steady := []float64{100, 101, 99, 100, 100, 100}
	noisy := []float64{60, 140, 100, 80, 120, 100}
	v := func(x float64, slices ...float64) metricValue { return metricValue{Value: x, Slices: slices} }
	for _, c := range []struct {
		name      string
		d         metricDef
		base, new metricValue
		want      string
	}{
		{"lower within bound", lower, v(100), v(109), verdictOK},
		{"lower beyond bound", lower, v(100), v(111), verdictWorse},
		{"lower improved", lower, v(100), v(50), verdictOK},
		{"higher within bound", higher, v(1000, steady...), v(930, steady...), verdictOK},
		{"higher beyond bound", higher, v(1000, steady...), v(900, steady...), verdictWorse},
		{"higher improved", higher, v(1000, steady...), v(2000, steady...), verdictOK},
		{"noisy base", higher, v(1000, noisy...), v(900, steady...), verdictUnresolved},
		{"noisy new, though equal", higher, v(1000, steady...), v(1000, noisy...), verdictUnresolved},
		{"zero bound, equal", exact, v(0), v(0), verdictOK},
		{"zero bound, any increase", exact, v(0), v(0.001), verdictWorse},
	} {
		if got := verdict(c.d, c.base, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, ops float64) string {
		rep := report{Workloads: map[string]*result{wlSmallReads: {Correct: true, Metrics: map[string]metricValue{
			"ops_per_s":    {Value: ops, Unit: "1/s"},
			"query_p50_us": {Value: 100, Unit: "us"},
		}}}}
		path := dir + "/" + name
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := mk("base.json", 1000), mk("same.json", 1001), mk("slow.json", 500)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, base, same); err != nil || worse {
		t.Errorf("same commit: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err := compareFiles(&out, base, slow)
	if err != nil || !worse {
		t.Errorf("halved throughput: worse=%v err=%v", worse, err)
	}
	if !strings.Contains(out.String(), "0.5000 of 1000") || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("row lacks the ratio with its base or the verdict:\n%s", out.String())
	}
}

// The oracle accepts the true answer and refutes one that drops an object,
// adds an object outside the window, or names an object it does not know.
func TestOracleRange(t *testing.T) {
	e := newEnv(2000)
	own := []geom.Rect{quantRect(geom.RectFromCenter(e.objects[0].MBR.Center(), ownedSide, ownedSide))}
	w := world{e: e, ownBase: ownedBase(e, 1, len(own)), own: own}
	q := rangeAt(quantPoint(e.objects[0].MBR.Center()), smallRangeSide)
	var truth []rtree.ObjectID
	w.each(func(id rtree.ObjectID, r geom.Rect) {
		if q.Window.Intersects(r) {
			truth = append(truth, id)
		}
	})
	if len(truth) < 2 || truth[len(truth)-1] != w.ownBase {
		t.Fatalf("window holds %v, want the first object, the owned one and more", truth)
	}
	var outside rtree.ObjectID
	w.each(func(id rtree.ObjectID, r geom.Rect) {
		if outside == 0 && !q.Window.Intersects(r) {
			outside = id
		}
	})
	for _, c := range []struct {
		name string
		ids  []rtree.ObjectID
		ok   bool
	}{
		{"truth", truth, true},
		{"one missing", truth[1:], false},
		{"one outside", append(slices.Clone(truth), outside), false},
		{"unknown id", append(slices.Clone(truth), w.ownBase+1), false},
	} {
		if err := w.check(sample{q: q, ids: c.ids}); (err == nil) != c.ok {
			t.Errorf("%s: oracle says %v", c.name, err)
		}
	}
}

// first1000 renders the first thousand requests a client would send.
func first1000(e *env, workload string, seed int64) []byte {
	var b []byte
	if workload == wlTour {
		tr := newTour(seed, 1)
		for i := 0; i < 1000; i++ {
			_, q := tr.next()
			b = wire.EncodeRequest(b, &wire.Request{Q: q})
		}
		return b
	}
	w := newNetWorker(e, workload, seed, 1, nil, nil)
	if workload == wlMoving {
		w.owned = &owned{base: ownedBase(e, 1, 200), rects: initialRects(e, clientRNG(seed, wlMoving, 1, 3), 200)}
	}
	for i := 0; i < 1000; i++ {
		w.prepare()
		b = wire.EncodeRequest(b, &w.req)
	}
	return b
}

func TestGeneratorDeterminism(t *testing.T) {
	e := newEnv(2000)
	for _, wl := range workloadNames {
		a, b, c := first1000(e, wl, 5), first1000(e, wl, 5), first1000(e, wl, 6)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed generated different requests", wl)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds generated the same requests", wl)
		}
	}
}

// BENCHMARK.json must declare exactly what the command prints.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, want %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d defined", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (bounded && g.Bound != d.Bound) {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, driverEndToEnd(), true)
	same("per_layer", bj.PerLayer, driverPerLayer(), false) // the driver does not gate layers
}

// Every workload, small and short, through every pass: each declared metric
// is emitted under its name with its unit, and nothing fails.
func TestQuickSmoke(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(options{workload: wl, seed: 3, seconds: 0.3, trace: 1, quick: true, scratch: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			for _, d := range endToEnd {
				mv, ok := res.Metrics[d.Name]
				if ok != d.definedOn(wl) {
					t.Errorf("%s: emitted=%v, defined on this workload=%v", d.Name, ok, d.definedOn(wl))
				}
				if ok && mv.Unit != d.Unit {
					t.Errorf("%s: unit %q, want %q", d.Name, mv.Unit, d.Unit)
				}
				if ok && d.Name != "failed_frac" && mv.Value <= 0 {
					t.Errorf("%s = %g: end-to-end metrics are never zero", d.Name, mv.Value)
				}
			}
			if ff := res.Metrics["failed_frac"].Value; ff != 0 {
				t.Errorf("failed_frac = %g", ff)
			}
			for _, d := range driverPerLayer() {
				mv, ok := res.Layers[d.Name]
				if !ok || mv.Unit != d.Unit {
					t.Errorf("%s: emitted=%v unit %q, want %q", d.Name, ok, mv.Unit, d.Unit)
				}
				if ok && !d.definedOn(wl) && mv.Value != 0 {
					t.Errorf("%s = %g on a workload that does not define it", d.Name, mv.Value)
				}
			}
		})
	}
}
