package load

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMatrixWellFormed pins the matrix invariants the rest of the harness
// assumes: exactly the stable names CI and the docs use, normalized mixes,
// an SLO on everything.
func TestMatrixWellFormed(t *testing.T) {
	var names []string
	for _, sp := range append(Matrix(), FaultMatrix()...) {
		names = append(names, sp.Name)
		sum := sp.RangeFrac + sp.KNNFrac + sp.JoinFrac + sp.UpdateFrac
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: mix sums to %g, want 1", sp.Name, sum)
		}
		if sp.SLO.MinAchievedFrac <= 0 || sp.SLO.MaxShedFrac <= 0 {
			t.Errorf("%s: SLO not fully set: %+v", sp.Name, sp.SLO)
		}
		if _, err := Lookup(sp.Name); err != nil {
			t.Errorf("Lookup(%q): %v", sp.Name, err)
		}
	}
	want := "baseline flash-crowd shard-skew shard-crash-recovery"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("scenarios %q, want %q", got, want)
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Error("Lookup of unknown scenario did not fail")
	}
}

// TestGenMixPinned verifies, for every scenario, that the generated
// operation mix lands on the spec's fractions, every query op carries its
// query and every update op the spec's batch size.
func TestGenMixPinned(t *testing.T) {
	const n = 20000
	const tol = 0.02 // ~6 sigma at n=20000
	for _, sp := range Matrix() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			g := NewGen(sp, 99, 1_000_000, 10)
			var kind [OpUpdate + 1]int
			for i := 0; i < n; i++ {
				op := g.Next(10 * float64(i) / n)
				kind[op.Kind]++
				if op.Kind == OpUpdate {
					if op.UpdateN != sp.UpdateBatch {
						t.Fatalf("update batch %d, want %d", op.UpdateN, sp.UpdateBatch)
					}
				} else if op.Q.Kind == 0 {
					t.Fatalf("query op %d carries no query: %+v", i, op)
				}
			}
			for k, want := range [...]float64{OpRange: sp.RangeFrac, OpKNN: sp.KNNFrac, OpJoin: sp.JoinFrac, OpUpdate: sp.UpdateFrac} {
				if got := float64(kind[k]) / n; math.Abs(got-want) > tol {
					t.Errorf("op kind %d frac %.3f, want %.3f", k, got, want)
				}
			}
		})
	}
}

// TestGenDeterministic pins that the same (spec, seed, users, duration)
// reproduces the identical operation stream — the property CI regression
// comparisons rest on — for each shape.
func TestGenDeterministic(t *testing.T) {
	for _, name := range []string{"baseline", "flash-crowd", "shard-skew"} {
		sp, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		a := NewGen(sp, 7, 100_000, 5)
		b := NewGen(sp, 7, 100_000, 5)
		for i := 0; i < 2000; i++ {
			at := 5 * float64(i) / 2000
			oa, ob := a.Next(at), b.Next(at)
			if oa != ob {
				t.Fatalf("%s: op %d diverged: %+v vs %+v", name, i, oa, ob)
			}
		}
	}
}

// TestUserAttributesStable pins the hash-derived population: a user's home
// never changes, lies in the unit square, and moves with the seed.
func TestUserAttributesStable(t *testing.T) {
	for u := uint64(0); u < 1000; u++ {
		if homeOf(3, u) != homeOf(3, u) {
			t.Fatalf("user %d home not stable", u)
		}
		h := homeOf(3, u)
		if h.X < 0 || h.X >= 1 || h.Y < 0 || h.Y >= 1 {
			t.Fatalf("user %d home %v outside unit square", u, h)
		}
	}
	// Different seeds relocate the population.
	if homeOf(3, 42) == homeOf(4, 42) {
		t.Error("seed does not affect user placement")
	}
}

// TestArrivalsPoissonChiSquared is the arrival-process sanity bound: the
// inter-arrival gaps of a Poisson schedule, pushed through the exponential
// CDF, must be uniform. Twenty equal-probability bins, df=19; 50 is past
// the 99.99th percentile, so a real distribution bug fails loudly while
// seed-to-seed noise never does.
func TestArrivalsPoissonChiSquared(t *testing.T) {
	const (
		rate = 1000.0
		n    = 20000
		bins = 20
	)
	a := newArrivals(rate, true, rand.New(rand.NewSource(11)))
	prev := 0.0
	var counts [bins]int
	for i := 0; i < n; i++ {
		at := a.Next()
		gap := at - prev
		prev = at
		u := 1 - math.Exp(-rate*gap) // exponential CDF -> uniform
		b := int(u * bins)
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	exp := float64(n) / bins
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	if chi2 > 50 {
		t.Fatalf("chi-squared %.1f exceeds 50 (df=19): gaps are not exponential; counts=%v", chi2, counts)
	}
	// And the realized rate matches the schedule.
	if got := float64(n) / prev; math.Abs(got-rate)/rate > 0.05 {
		t.Fatalf("realized rate %.0f, want ~%.0f", got, rate)
	}
}

// TestArrivalsFixed pins the fixed-rate schedule: constant gaps of 1/rate
// after the randomized phase offset.
func TestArrivalsFixed(t *testing.T) {
	const rate = 500.0
	a := newArrivals(rate, false, rand.New(rand.NewSource(5)))
	first := a.Next()
	if first < 0 || first >= 1/rate {
		t.Fatalf("phase offset %g outside [0, %g)", first, 1/rate)
	}
	prev := first
	for i := 0; i < 1000; i++ {
		at := a.Next()
		if math.Abs((at-prev)-1/rate) > 1e-12 {
			t.Fatalf("gap %g, want exactly %g", at-prev, 1/rate)
		}
		prev = at
	}
}

// TestShapeCenters spot-checks the population dynamics: a flash crowd
// concentrates late, a static hotspot holds from the first arrival, and
// updates drawn into either crowd come from the ambient fleet's homes.
func TestShapeCenters(t *testing.T) {
	const samples = 2000
	hot := hotspotCenter(21)
	near := func(sp Spec, gen *Gen, tm float64) int {
		n := 0
		for i := 0; i < samples; i++ {
			op := gen.Next(tm)
			if op.Kind == OpUpdate && op.Center != homeOf(21, op.User) {
				t.Fatalf("%s: update at %v, not at user %d's home", sp.Name, op.Center, op.User)
			}
			if math.Hypot(op.Center.X-hot.X, op.Center.Y-hot.Y) < 3*sp.HotRadius {
				n++
			}
		}
		return n
	}

	crowd, _ := Lookup("flash-crowd")
	g := NewGen(crowd, 21, 1_000_000, 10)
	if early, late := near(crowd, g, 0.1), near(crowd, g, 9.9); late <= early+200 {
		t.Fatalf("flash crowd did not ramp: %d hot early, %d hot late", early, late)
	}

	static := Spec{
		Name:      "static-hotspot",
		RangeFrac: 0.57, KNNFrac: 0.42, UpdateFrac: 0.01,
		Shape: ShapeHotspot, HotFrac: 0.92, HotRadius: 0.02,
		TileQuant: 32, AmbientUpdates: true,
	}.normalized()
	g = NewGen(static, 21, 1_000_000, 10)
	floor := int(0.8 * static.HotFrac * samples)
	if early, late := near(static, g, 0.1), near(static, g, 9.9); early < floor || late < floor {
		t.Fatalf("static hotspot drew %d early and %d late of %d, want >= %d both", early, late, samples, floor)
	}
}

// TestScenarioNamesResolve extracts every "-scenario a,b,..." argument
// from the CI workflow, the bench script, the README and docs/*.md and
// resolves each name, so a renamed or deleted scenario cannot leave a
// command line behind that fails only when someone runs it.
func TestScenarioNamesResolve(t *testing.T) {
	files, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "../../.github/workflows/ci.yml", "../../scripts/bench.sh", "../../README.md")
	arg := regexp.MustCompile(`-scenario[ \t]+([a-z0-9][a-z0-9,-]*)`)
	refs := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range arg.FindAllStringSubmatch(string(data), -1) {
			for _, name := range strings.Split(m[1], ",") {
				refs++
				if name == "all" {
					continue
				}
				if _, err := Lookup(name); err != nil {
					t.Errorf("%s: %v", f, err)
				}
			}
		}
	}
	if refs < 10 {
		t.Fatalf("found only %d scenario references; the extraction is broken", refs)
	}
}
