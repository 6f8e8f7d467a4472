package sim

import (
	"io"
	"testing"

	"repro/internal/core"
)

// testScale keeps unit tests fast.
func testScale() Scale { return Scale{Objects: 6_000, Queries: 250, Seed: 1} }

// sharedEnv is built once; tests only read it.
var sharedEnv = NewNEEnvironment(testScale())

func run(t *testing.T, mutate func(*Config)) *Result {
	t.Helper()
	cfg := DefaultConfig(sharedEnv)
	cfg.Queries = testScale().Queries
	cfg.Seed = 42
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunBasics(t *testing.T) {
	res := run(t, nil)
	if res.Sum.Queries != testScale().Queries {
		t.Fatalf("ran %d queries", res.Sum.Queries)
	}
	if res.Sum.MeanResp() < 0 {
		t.Error("negative response time")
	}
	if res.SimulatedTime <= 0 {
		t.Error("clock did not advance")
	}
	if res.FinalCacheUsed <= 0 {
		t.Error("proactive cache stayed empty")
	}
	if res.FinalIndexBytes <= 0 {
		t.Error("no index was cached under APRO")
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, nil)
	b := run(t, nil)
	if a.Sum != b.Sum {
		t.Errorf("same seed, different outcomes:\n%+v\n%+v", a.Sum, b.Sum)
	}
	c := run(t, func(cfg *Config) { cfg.Seed = 43 })
	if a.Sum == c.Sum {
		t.Error("different seeds produced identical outcomes")
	}
}

func TestModelsProduceSensibleMetrics(t *testing.T) {
	for _, m := range []Model{APRO, FPRO, CPRO, SEM, PAG} {
		res := run(t, func(cfg *Config) { cfg.Model = m })
		s := res.Sum
		if s.HitC() < 0 || s.HitC() > 1 || s.HitB() < s.HitC() {
			t.Errorf("%v: hit rates inconsistent: hitc=%.3f hitb=%.3f", m, s.HitC(), s.HitB())
		}
		if m == PAG && s.HitC() != 0 {
			t.Errorf("PAG hitc = %.3f, must be 0", s.HitC())
		}
		if m != PAG && m != SEM && s.HitC() == 0 {
			t.Errorf("%v: proactive model never hit", m)
		}
	}
}

// TestFigure6Shape asserts the paper's headline ordering at test scale:
// PAG has the highest uplink and zero hitc; APRO has the best response time
// and the highest hitc.
func TestFigure6Shape(t *testing.T) {
	rows, err := Figure6(sharedEnv, testScale())
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[Model]Fig6Row{}
	for _, r := range rows {
		byModel[r.Model] = r
	}
	pag, sem, apro := byModel[PAG], byModel[SEM], byModel[APRO]

	if !(pag.Uplink > sem.Uplink && pag.Uplink > apro.Uplink) {
		t.Errorf("PAG should pay the most uplink: PAG=%.0f SEM=%.0f APRO=%.0f", pag.Uplink, sem.Uplink, apro.Uplink)
	}
	if pag.HitC != 0 {
		t.Errorf("PAG hitc = %.3f", pag.HitC)
	}
	if !(apro.HitC > sem.HitC) {
		t.Errorf("APRO hitc %.3f should beat SEM %.3f", apro.HitC, sem.HitC)
	}
	if !(apro.Resp < pag.Resp && apro.Resp < sem.Resp) {
		t.Errorf("APRO resp %.3f should be best (PAG %.3f, SEM %.3f)", apro.Resp, pag.Resp, sem.Resp)
	}
	FprintFigure6(io.Discard, rows)
}

// TestFigure7Shape: RAN has better locality than DIR, so response times are
// lower under RAN; APRO's false miss rate stays nearly flat across models.
// The locality gap needs a longer horizon than the other shape tests.
func TestFigure7Shape(t *testing.T) {
	sc := testScale()
	sc.Queries = 1200
	rows, err := Figure7(sharedEnv, sc)
	if err != nil {
		t.Fatal(err)
	}
	var apro Fig7Row
	for _, r := range rows {
		if r.Model == APRO {
			apro = r
		}
		// At test scale the RAN/DIR gap is small; assert it does not invert
		// grossly (full-scale runs in EXPERIMENTS.md show the clean gap).
		if r.Model != PAG && r.RespRAN > r.RespDIR*1.25 {
			t.Errorf("%v: RAN resp %.3f should not exceed DIR %.3f by >25%%", r.Model, r.RespRAN, r.RespDIR)
		}
	}
	if apro.FMRDIR > apro.FMRRAN+0.25 {
		t.Errorf("APRO fmr should be mobility-stable: RAN %.3f DIR %.3f", apro.FMRRAN, apro.FMRDIR)
	}
	FprintFigure7(io.Discard, rows)
}

// TestFigure8Shape: PAG's uplink grows with |C| so its response time stops
// improving; APRO keeps improving with more cache.
func TestFigure8Shape(t *testing.T) {
	rows, err := Figure8and9(sharedEnv, testScale())
	if err != nil {
		t.Fatal(err)
	}
	resp := map[Model]map[float64]float64{}
	cpu := map[Model]map[float64]float64{}
	for _, r := range rows {
		if resp[r.Model] == nil {
			resp[r.Model] = map[float64]float64{}
			cpu[r.Model] = map[float64]float64{}
		}
		resp[r.Model][r.CacheFrac] = r.Resp
		cpu[r.Model][r.CacheFrac] = r.CPUms
	}
	// APRO: biggest cache should beat the smallest cache clearly.
	if !(resp[APRO][0.05] < resp[APRO][0.001]) {
		t.Errorf("APRO should improve with cache: 0.1%%=%.3f 5%%=%.3f", resp[APRO][0.001], resp[APRO][0.05])
	}
	// PAG at 5% should NOT be meaningfully better than at 1% (uplink cost).
	if resp[PAG][0.05] < resp[PAG][0.01]*0.9 {
		t.Errorf("PAG 5%% resp %.3f improved too much over 1%% %.3f", resp[PAG][0.05], resp[PAG][0.01])
	}
	// Figure 9 shape: PAG CPU grows with cache size; APRO CPU stays flatter.
	pagGrowth := cpu[PAG][0.05] / (cpu[PAG][0.001] + 1e-9)
	aproGrowth := cpu[APRO][0.05] / (cpu[APRO][0.001] + 1e-9)
	if pagGrowth < aproGrowth {
		t.Errorf("PAG CPU growth %.2fx should exceed APRO's %.2fx", pagGrowth, aproGrowth)
	}
	FprintFigure8and9(io.Discard, rows)
}

// TestFigure10Shape: MRU is always the worst replacement policy.
func TestFigure10Shape(t *testing.T) {
	rows, err := Figure10(sharedEnv, testScale())
	if err != nil {
		t.Fatal(err)
	}
	var mru, grd3 Fig10Row
	for _, r := range rows {
		switch r.Policy {
		case core.MRU:
			mru = r
		case core.GRD3:
			grd3 = r
		}
	}
	if !(mru.RespRAN >= grd3.RespRAN && mru.RespDIR >= grd3.RespDIR) {
		t.Errorf("MRU (%.3f/%.3f) should not beat GRD3 (%.3f/%.3f)",
			mru.RespRAN, mru.RespDIR, grd3.RespRAN, grd3.RespDIR)
	}
	FprintFigure10(io.Discard, rows)
}

// TestFigure11Shape: CPRO ships the least index (lowest i/c), FPRO the most;
// CPRO's false miss rate exceeds FPRO's.
func TestFigure11Shape(t *testing.T) {
	series, err := Figure11(sharedEnv, testScale(), 50)
	if err != nil {
		t.Fatal(err)
	}
	agg := map[Model]*struct{ fmr, ic float64 }{}
	for _, s := range series {
		a := &struct{ fmr, ic float64 }{}
		for _, p := range s.Points {
			a.fmr += p.FMR
			a.ic += p.IndexFrac
		}
		n := float64(len(s.Points))
		a.fmr /= n
		a.ic /= n
		agg[s.Model] = a
	}
	if !(agg[FPRO].ic > agg[CPRO].ic) {
		t.Errorf("FPRO i/c %.3f should exceed CPRO %.3f", agg[FPRO].ic, agg[CPRO].ic)
	}
	if !(agg[CPRO].fmr > agg[FPRO].fmr) {
		t.Errorf("CPRO fmr %.3f should exceed FPRO %.3f", agg[CPRO].fmr, agg[FPRO].fmr)
	}
	// APRO's index share sits between the two static extremes (or near them).
	if agg[APRO].ic > agg[FPRO].ic+0.05 {
		t.Errorf("APRO i/c %.3f above FPRO %.3f", agg[APRO].ic, agg[FPRO].ic)
	}
	FprintFigure11(io.Discard, series)
}

func TestAblationPartitionCost(t *testing.T) {
	rows, err := AblationPartitionCost(sharedEnv, testScale())
	if err != nil {
		t.Fatal(err)
	}
	var full, adaptive int64
	for _, r := range rows {
		if r.Model == FPRO {
			full = r.ServerEngineOps
		} else {
			adaptive = r.ServerEngineOps
		}
	}
	if full == 0 || adaptive == 0 {
		t.Fatal("no server work recorded")
	}
	// Section 4.2 bounds partition navigation at 2x the node accesses, and
	// Section 6.4 observes that in practice it is *cheaper* than full-form
	// expansion (only a small part of each partition tree is visited, while
	// full form enumerates every entry). Assert the generous upper bound.
	if ratio := float64(adaptive) / float64(full); ratio > 3.0 {
		t.Errorf("partition navigation ratio %.2f exceeds bound", ratio)
	}
}

func TestAblationGRD2vsGRD3Agree(t *testing.T) {
	rows, err := AblationGRD2vsGRD3(sharedEnv, testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("want 2 rows")
	}
	// Equivalent policies: hit rates within a small tolerance of each other.
	if d := rows[0].HitC - rows[1].HitC; d > 0.1 || d < -0.1 {
		t.Errorf("GRD2 hitc %.3f vs GRD3 %.3f diverge", rows[0].HitC, rows[1].HitC)
	}
}

func TestKScheduleDrivesK(t *testing.T) {
	res := run(t, func(cfg *Config) {
		cfg.Mix = [3]float64{0, 1, 0}
		cfg.KSchedule = func(i int) float64 { return 10 }
		cfg.WindowSize = 50
	})
	if res.Sum.Queries == 0 || len(res.Windows) == 0 {
		t.Fatal("no windows recorded")
	}
}

func TestStaticDAblation(t *testing.T) {
	rows, adaptive, err := AblationStaticD(sharedEnv, Scale{Objects: 0, Queries: 150, Seed: 5}, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || adaptive.Resp <= 0 {
		t.Fatalf("unexpected ablation output: %+v %+v", rows, adaptive)
	}
}
