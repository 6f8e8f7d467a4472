package sim

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Scale bundles the knobs that trade fidelity for runtime: the paper's full
// scale (123,593 objects, 10,000 queries) versus reduced scales for tests
// and benchmarks. The shapes of all figures survive scaling down; absolute
// byte counts shrink with the dataset.
type Scale struct {
	Objects int
	Queries int
	Seed    int64
}

// FullScale reproduces the paper's NE setting.
func FullScale() Scale { return Scale{Objects: dataset.NECardinality, Queries: 10_000, Seed: 1} }

// BenchScale keeps go test -bench runs in tens of seconds.
func BenchScale() Scale { return Scale{Objects: 30_000, Queries: 1_500, Seed: 1} }

// NewNEEnvironment generates the NE-like dataset at the given scale and
// indexes it.
func NewNEEnvironment(sc Scale) *Environment {
	return NewEnvironment(dataset.GenerateNE(dataset.Params{N: sc.Objects, Seed: sc.Seed}))
}

// NewRDEnvironment generates the RD-like dataset at the given scale and
// indexes it.
func NewRDEnvironment(sc Scale) *Environment {
	return NewEnvironment(dataset.GenerateRD(dataset.Params{N: sc.Objects, Seed: sc.Seed}))
}

// ---------------------------------------------------------------------------
// Figure 6: overall comparison, DIR mobility, |C| = 1%.

// Fig6Row is one caching model's bar group in Figure 6.
type Fig6Row struct {
	Model    Model
	Uplink   float64 // bytes/query
	Downlink float64 // bytes/query
	HitC     float64
	HitB     float64
	Resp     float64 // seconds
}

// Figure6 runs PAG, SEM and APRO under the Figure 6 setting.
func Figure6(env *Environment, sc Scale) ([]Fig6Row, error) {
	var rows []Fig6Row
	for _, m := range []Model{PAG, SEM, APRO} {
		cfg := DefaultConfig(env)
		cfg.Model = m
		cfg.Mobility = DIR
		cfg.Queries = sc.Queries
		cfg.Seed = sc.Seed
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig6Row{
			Model:    m,
			Uplink:   res.Sum.MeanUplink(),
			Downlink: res.Sum.MeanDownlink(),
			HitC:     res.Sum.HitC(),
			HitB:     res.Sum.HitB(),
			Resp:     res.Sum.MeanResp(),
		})
	}
	return rows, nil
}

// FprintFigure6 renders Figure 6 rows as a table.
func FprintFigure6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintf(w, "Figure 6: overall comparison (DIR, |C|=1%%)\n")
	fmt.Fprintf(w, "%-6s %12s %14s %8s %8s %10s\n", "model", "uplink B/q", "downlink B/q", "hitc", "hitb", "resp s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %12.1f %14.1f %8.3f %8.3f %10.3f\n",
			r.Model, r.Uplink, r.Downlink, r.HitC, r.HitB, r.Resp)
	}
}

// ---------------------------------------------------------------------------
// Figure 7: mobility models.

// Fig7Row is one model's pair of bars in Figures 7(a) and 7(b).
type Fig7Row struct {
	Model   Model
	RespRAN float64
	RespDIR float64
	FMRRAN  float64 // meaningful for SEM and APRO only
	FMRDIR  float64
	HasFMR  bool
}

// Figure7 measures response time and false miss rate under both mobility
// models.
func Figure7(env *Environment, sc Scale) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, m := range []Model{PAG, SEM, APRO} {
		row := Fig7Row{Model: m, HasFMR: m != PAG}
		for _, mob := range []MobilityKind{RAN, DIR} {
			cfg := DefaultConfig(env)
			cfg.Model = m
			cfg.Mobility = mob
			cfg.Queries = sc.Queries
			cfg.Seed = sc.Seed
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			if mob == RAN {
				row.RespRAN, row.FMRRAN = res.Sum.MeanResp(), res.Sum.FMR()
			} else {
				row.RespDIR, row.FMRDIR = res.Sum.MeanResp(), res.Sum.FMR()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintFigure7 renders Figure 7 rows.
func FprintFigure7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintf(w, "Figure 7(a): response time (s) under mobility models\n")
	fmt.Fprintf(w, "%-6s %10s %10s\n", "model", "RAN", "DIR")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %10.3f %10.3f\n", r.Model, r.RespRAN, r.RespDIR)
	}
	fmt.Fprintf(w, "Figure 7(b): false miss rate under mobility models\n")
	fmt.Fprintf(w, "%-6s %10s %10s\n", "model", "RAN", "DIR")
	for _, r := range rows {
		if r.HasFMR {
			fmt.Fprintf(w, "%-6s %10.3f %10.3f\n", r.Model, r.FMRRAN, r.FMRDIR)
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 8 and 9: cache-size sweep (response time and client CPU).

// SweepRow is one (model, cache size) cell of Figures 8 and 9.
type SweepRow struct {
	Model     Model
	CacheFrac float64
	Resp      float64
	CPUms     float64
}

// CacheFracs is the paper's |C| sweep.
var CacheFracs = []float64{0.001, 0.005, 0.01, 0.05}

// Figure8and9 sweeps cache sizes under RAN for all three models; the same
// runs yield both the response-time curves (Fig. 8) and the client CPU
// curves (Fig. 9).
func Figure8and9(env *Environment, sc Scale) ([]SweepRow, error) {
	var rows []SweepRow
	for _, m := range []Model{PAG, SEM, APRO} {
		for _, frac := range CacheFracs {
			cfg := DefaultConfig(env)
			cfg.Model = m
			cfg.Mobility = RAN
			cfg.CacheFrac = frac
			cfg.Queries = sc.Queries
			cfg.Seed = sc.Seed
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, SweepRow{Model: m, CacheFrac: frac, Resp: res.Sum.MeanResp(), CPUms: res.Sum.MeanCPU()})
		}
	}
	return rows, nil
}

// FprintFigure8and9 renders the sweep as the two figures' tables.
func FprintFigure8and9(w io.Writer, rows []SweepRow) {
	fmt.Fprintf(w, "Figure 8: response time (s) vs cache size (RAN)\n")
	fprintSweep(w, rows, func(r SweepRow) float64 { return r.Resp }, "%10.3f")
	fmt.Fprintf(w, "Figure 9: client CPU (ms) vs cache size (RAN)\n")
	fprintSweep(w, rows, func(r SweepRow) float64 { return r.CPUms }, "%10.2f")
}

func fprintSweep(w io.Writer, rows []SweepRow, pick func(SweepRow) float64, cell string) {
	fmt.Fprintf(w, "%-6s", "model")
	for _, f := range CacheFracs {
		fmt.Fprintf(w, "%9.1f%%", f*100)
	}
	fmt.Fprintln(w)
	for _, m := range []Model{PAG, SEM, APRO} {
		fmt.Fprintf(w, "%-6s", m)
		for _, f := range CacheFracs {
			for _, r := range rows {
				if r.Model == m && r.CacheFrac == f {
					fmt.Fprintf(w, cell, pick(r))
				}
			}
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------------
// Figure 10: replacement schemes for APRO.

// Fig10Row is one replacement policy's bar pair.
type Fig10Row struct {
	Policy  core.Policy
	RespRAN float64
	RespDIR float64
}

// Figure10 compares replacement policies for adaptive proactive caching.
// MRU is included so the "always the worst" remark is checkable.
func Figure10(env *Environment, sc Scale) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, pol := range []core.Policy{core.LRU, core.FAR, core.GRD3, core.MRU} {
		row := Fig10Row{Policy: pol}
		for _, mob := range []MobilityKind{RAN, DIR} {
			cfg := DefaultConfig(env)
			cfg.Model = APRO
			cfg.Policy = pol
			cfg.Mobility = mob
			cfg.Queries = sc.Queries
			cfg.Seed = sc.Seed
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			if mob == RAN {
				row.RespRAN = res.Sum.MeanResp()
			} else {
				row.RespDIR = res.Sum.MeanResp()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintFigure10 renders Figure 10 rows.
func FprintFigure10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintf(w, "Figure 10: APRO response time (s) by replacement scheme\n")
	fmt.Fprintf(w, "%-6s %10s %10s\n", "policy", "RAN", "DIR")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %10.3f %10.3f\n", r.Policy, r.RespRAN, r.RespDIR)
	}
}

// ---------------------------------------------------------------------------
// Figure 11: adaptive vs non-adaptive time series.

// Fig11Series is one model's three curves over the query sequence.
type Fig11Series struct {
	Model  Model
	Points []WindowPoint
}

// Figure11 runs the kNN-only drifting-k workload (average k falls 10 -> 1
// over the first half, then rises back) for FPRO, CPRO and APRO with a
// small cache (0.1%) under RAN, sampling every windowSize queries.
func Figure11(env *Environment, sc Scale, windowSize int) ([]Fig11Series, error) {
	if windowSize <= 0 {
		windowSize = sc.Queries / 20
		if windowSize == 0 {
			windowSize = 1
		}
	}
	half := float64(sc.Queries) / 2
	schedule := func(i int) float64 {
		fi := float64(i)
		if fi < half {
			return 10 - 9*fi/half
		}
		return 1 + 9*(fi-half)/half
	}
	var out []Fig11Series
	for _, m := range []Model{FPRO, CPRO, APRO} {
		cfg := DefaultConfig(env)
		cfg.Model = m
		cfg.Mobility = RAN
		cfg.CacheFrac = 0.001
		cfg.Queries = sc.Queries
		cfg.Seed = sc.Seed
		cfg.Mix = [3]float64{0, 1, 0} // kNN only
		cfg.KSchedule = schedule
		cfg.WindowSize = windowSize
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig11Series{Model: m, Points: res.Windows})
	}
	return out, nil
}

// FprintFigure11 renders the three series side by side.
func FprintFigure11(w io.Writer, series []Fig11Series) {
	fmt.Fprintf(w, "Figure 11: kNN drift series (|C|=0.1%%, RAN); columns per model: fmr, i/c, resp(s)\n")
	fmt.Fprintf(w, "%8s", "query")
	for _, s := range series {
		fmt.Fprintf(w, " |%6s fmr   i/c  resp", s.Model)
	}
	fmt.Fprintln(w)
	if len(series) == 0 {
		return
	}
	for i := range series[0].Points {
		fmt.Fprintf(w, "%8d", series[0].Points[i].EndQuery)
		for _, s := range series {
			p := s.Points[i]
			fmt.Fprintf(w, " |%10.3f %5.2f %5.2f", p.FMR, p.IndexFrac, p.Resp)
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------------
// Ablations beyond the paper's figures.

// AblationStaticD pins the refinement level d (feedback disabled) to isolate
// the adaptive scheme's contribution: APRO should track the best static d.
type StaticDRow struct {
	D    int
	Resp float64
	FMR  float64
	HitC float64
}

// AblationStaticD sweeps fixed d values plus the adaptive scheme.
func AblationStaticD(env *Environment, sc Scale, ds []int) ([]StaticDRow, StaticDRow, error) {
	var rows []StaticDRow
	for _, d := range ds {
		cfg := DefaultConfig(env)
		cfg.Model = APRO
		cfg.Queries = sc.Queries
		cfg.Seed = sc.Seed
		cfg.InitialD = d
		cfg.FMRPeriod = sc.Queries + 1 // never report: d stays pinned
		res, err := Run(cfg)
		if err != nil {
			return nil, StaticDRow{}, err
		}
		rows = append(rows, StaticDRow{D: d, Resp: res.Sum.MeanResp(), FMR: res.Sum.FMR(), HitC: res.Sum.HitC()})
	}
	cfg := DefaultConfig(env)
	cfg.Model = APRO
	cfg.Queries = sc.Queries
	cfg.Seed = sc.Seed
	res, err := Run(cfg)
	if err != nil {
		return nil, StaticDRow{}, err
	}
	adaptive := StaticDRow{D: -1, Resp: res.Sum.MeanResp(), FMR: res.Sum.FMR(), HitC: res.Sum.HitC()}
	return rows, adaptive, nil
}

// GRD2vsGRD3Row compares the reference and efficient replacement algorithms.
type GRD2vsGRD3Row struct {
	Policy   core.Policy
	Resp     float64
	HitC     float64
	CacheOps float64 // mean cache ops per query (GRD2 pays the recursion)
}

// AblationGRD2vsGRD3 confirms the Theorem 5.5 equivalence operationally:
// nearly identical hit rates and response times, different maintenance cost.
func AblationGRD2vsGRD3(env *Environment, sc Scale) ([]GRD2vsGRD3Row, error) {
	var rows []GRD2vsGRD3Row
	for _, pol := range []core.Policy{core.GRD2, core.GRD3} {
		cfg := DefaultConfig(env)
		cfg.Model = APRO
		cfg.Policy = pol
		cfg.Queries = sc.Queries
		cfg.Seed = sc.Seed
		cfg.CacheFrac = 0.005 // small cache: replacement actually runs
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, GRD2vsGRD3Row{
			Policy:   pol,
			Resp:     res.Sum.MeanResp(),
			HitC:     res.Sum.HitC(),
			CacheOps: res.Sum.MeanCPU(),
		})
	}
	return rows, nil
}

// PartitionCostRow quantifies the Section 4.2 claim that partition-tree
// navigation at most doubles node accesses: server engine ops under
// compact/adaptive shipping vs full-form shipping.
type PartitionCostRow struct {
	Model           Model
	ServerEngineOps int64
}

// AblationPartitionCost measures server-side engine work with and without
// partition-tree navigation.
func AblationPartitionCost(env *Environment, sc Scale) ([]PartitionCostRow, error) {
	var rows []PartitionCostRow
	for _, m := range []Model{FPRO, APRO} {
		cfg := DefaultConfig(env)
		cfg.Model = m
		cfg.Queries = sc.Queries
		cfg.Seed = sc.Seed
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PartitionCostRow{Model: m, ServerEngineOps: res.ServerEngineOps})
	}
	return rows, nil
}
