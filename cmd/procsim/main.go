// Command procsim regenerates the paper's experiments.
//
// Usage:
//
//	procsim -fig 6            # Figure 6 at bench scale
//	procsim -fig all -full    # every figure at paper scale (slow)
//	procsim -fig 11 -queries 4000 -objects 50000
//
// procsim -h lists the figures. Figures 8 and 9 come from the same sweep and
// are printed together. Serving-layer load belongs to cmd/proload (open
// loop) and benchmark/ (closed loop), not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/sim"
)

// params is what every figure runs with.
type params struct {
	env    *sim.Environment
	sc     sim.Scale
	window int // Figure 11's window size; 0 means queries/20
}

// figure writes one experiment's table to w.
type figure struct {
	name  string
	alias string // a second name for the same output ("9" prints with "8")
	run   func(w io.Writer, p params) error
}

// figures is the one list of experiments: it drives the -fig help, -fig all
// (in this order) and dispatch.
var figures = []figure{
	{name: "table61", run: printTable61},
	{name: "6", run: tabulate(sim.Figure6, sim.FprintFigure6)},
	{name: "7", run: tabulate(sim.Figure7, sim.FprintFigure7)},
	{name: "8", alias: "9", run: tabulate(sim.Figure8and9, sim.FprintFigure8and9)},
	{name: "10", run: tabulate(sim.Figure10, sim.FprintFigure10)},
	{name: "11", run: func(w io.Writer, p params) error {
		series, err := sim.Figure11(p.env, p.sc, p.window)
		if err == nil {
			sim.FprintFigure11(w, series)
		}
		return err
	}},
	{name: "ablation-staticd", run: func(w io.Writer, p params) error {
		rows, adaptive, err := sim.AblationStaticD(p.env, p.sc, []int{0, 1, 2, 4, 8})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ablation: fixed refinement level d vs adaptive")
		fmt.Fprintf(w, "%8s %10s %8s %8s\n", "d", "resp s", "fmr", "hitc")
		for _, r := range rows {
			fmt.Fprintf(w, "%8d %10.3f %8.3f %8.3f\n", r.D, r.Resp, r.FMR, r.HitC)
		}
		fmt.Fprintf(w, "%8s %10.3f %8.3f %8.3f\n", "adaptive", adaptive.Resp, adaptive.FMR, adaptive.HitC)
		return nil
	}},
	{name: "ablation-grd", run: tabulate(sim.AblationGRD2vsGRD3, func(w io.Writer, rows []sim.GRD2vsGRD3Row) {
		fmt.Fprintln(w, "Ablation: GRD2 (EBRS reference) vs GRD3 (efficient)")
		fmt.Fprintf(w, "%8s %10s %8s %12s\n", "policy", "resp s", "hitc", "cpu ms/q")
		for _, r := range rows {
			fmt.Fprintf(w, "%8s %10.3f %8.3f %12.3f\n", r.Policy, r.Resp, r.HitC, r.CacheOps)
		}
	})},
	{name: "ablation-partition", run: tabulate(sim.AblationPartitionCost, func(w io.Writer, rows []sim.PartitionCostRow) {
		fmt.Fprintln(w, "Ablation: server engine ops, full-form vs partition navigation")
		for _, r := range rows {
			fmt.Fprintf(w, "%8s %12d\n", r.Model, r.ServerEngineOps)
		}
	})},
	{name: "ext-updates", run: func(w io.Writer, p params) error {
		rows, err := sim.UpdateSweep(p.sc.Objects, p.sc.Queries, p.sc.Seed,
			[]float64{0, 0.1, 0.5, 2.0}, 20)
		if err == nil {
			sim.FprintUpdateSweep(w, rows)
		}
		return err
	}},
}

// tabulate makes a figure of an experiment run on the environment at its
// scale and the function that prints the experiment's rows.
func tabulate[T any](experiment func(*sim.Environment, sim.Scale) (T, error), show func(io.Writer, T)) func(io.Writer, params) error {
	return func(w io.Writer, p params) error {
		rows, err := experiment(p.env, p.sc)
		if err == nil {
			show(w, rows)
		}
		return err
	}
}

// environments maps each -dataset value to its generator.
var environments = map[string]func(sim.Scale) *sim.Environment{
	"ne": sim.NewNEEnvironment,
	"rd": sim.NewRDEnvironment,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is procsim over the given arguments and output streams. It returns the
// exit status: 2 for a bad flag (checked before any data is generated), 1
// when a figure fails.
func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, f := range figures {
		names = append(names, f.name)
		if f.alias != "" {
			names = append(names, f.alias)
		}
	}
	fs := flag.NewFlagSet("procsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "6", "experiment to run ("+strings.Join(names, ", ")+", all)")
		full    = fs.Bool("full", false, "paper scale: 123,593 objects, 10,000 queries")
		objects = fs.Int("objects", 0, "override dataset cardinality")
		queries = fs.Int("queries", 0, "override query count")
		seed    = fs.Int64("seed", 1, "random seed")
		ds      = fs.String("dataset", "ne", "dataset: ne or rd")
		window  = fs.Int("window", 0, "Figure 11 window size (default queries/20)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	todo := figures
	if *fig != "all" {
		todo = nil
		for _, f := range figures {
			if *fig == f.name || *fig == f.alias {
				todo = []figure{f}
			}
		}
		if todo == nil {
			fmt.Fprintf(stderr, "procsim: unknown figure %q (want one of %s, all)\n", *fig, strings.Join(names, ", "))
			return 2
		}
	}
	newEnv, ok := environments[*ds]
	if !ok {
		fmt.Fprintf(stderr, "procsim: unknown dataset %q (want ne or rd)\n", *ds)
		return 2
	}

	sc := sim.BenchScale()
	if *full {
		sc = sim.FullScale()
	}
	if *objects > 0 {
		sc.Objects = *objects
	}
	if *queries > 0 {
		sc.Queries = *queries
	}
	sc.Seed = *seed

	start := time.Now()
	fmt.Fprintf(stdout, "dataset=%s objects=%d queries=%d seed=%d\n", *ds, sc.Objects, sc.Queries, sc.Seed)
	env := newEnv(sc)
	fmt.Fprintf(stdout, "index built in %v (%d nodes, height %d)\n\n",
		time.Since(start).Round(time.Millisecond), env.Tree.NodeCount(), env.Tree.Height())

	p := params{env: env, sc: sc, window: *window}
	for _, f := range todo {
		t0 := time.Now()
		if err := f.run(stdout, p); err != nil {
			fmt.Fprintf(stderr, "procsim: %s: %v\n", f.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "[%s done in %v]\n\n", f.name, time.Since(t0).Round(time.Millisecond))
	}
	return 0
}

func printTable61(w io.Writer, p params) error {
	cfg := sim.DefaultConfig(p.env)
	fmt.Fprintln(w, "Table 6.1: system parameter settings")
	rows := [][2]string{
		{"spd", fmt.Sprintf("%g units/s", cfg.Speed)},
		{"think time", fmt.Sprintf("%gs (exponential)", cfg.ThinkMean)},
		{"Area_wnd", fmt.Sprintf("%g", cfg.AreaWnd)},
		{"Dist_join", fmt.Sprintf("%g", cfg.DistJoin)},
		{"join window side", fmt.Sprintf("%g (substitution, see README \"Substitutions\")", cfg.JoinWndSide)},
		{"K_max", fmt.Sprintf("%d", cfg.KMax)},
		{"bandwidth", fmt.Sprintf("%.0f Kbps", cfg.BandwidthBps/1000)},
		{"|C|", "0.1%..5% of dataset bytes (default 1%)"},
		{"|o|", "10KB mean, Zipf theta=0.8"},
		{"s", fmt.Sprintf("%g", cfg.Sensitivity)},
		{"dataset bytes", fmt.Sprintf("%d (%s, %d objects)", p.env.DS.TotalBytes, p.env.DS.Name, p.env.DS.Len())},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %s\n", r[0], r[1])
	}
	return nil
}
