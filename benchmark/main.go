// Command benchmark is this repository's benchmark: four closed-loop
// workloads driven from this one process, two client connections (one on
// moving-objects) with one request outstanding each, against the production
// stack (repro.NewClusterServer, 2 shards, 100 000 objects, its NetServer on
// a loopback port). README.md in this directory is the manual.
//
//	bash benchmark/run.sh --workload small-reads --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -workload all -seed 1 -out benchmark/out/a.json
//	bash benchmark/run.sh -compare benchmark/out/a.json benchmark/out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// metricValue is one reported number.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Slices  []float64 `json:"slices,omitempty"` // ops_per_s over nSlices equal parts of the window
}

// result is what one workload's run produced.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`          // end to end, untraced pass
	Layers    map[string]metricValue `json:"layers,omitempty"` // -trace 1
	Notes     []string               `json:"notes,omitempty"`
}

// report is the file -out writes.
type report struct {
	Env       environment        `json:"env"`
	Claim     *string            `json:"claim"` // always null: the benchmark claims nothing
	Workloads map[string]*result `json:"workloads"`
}

// environment is the record every result file carries.
type environment struct {
	CPUModel   string         `json:"cpu_model"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Quick      bool           `json:"quick"`
	Clients    map[string]int `json:"clients"` // closed-loop clients per workload
	Shards     int            `json:"shards"`
}

func currentEnvironment(seed int64, seconds float64, quick bool) environment {
	env := environment{
		CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
		Seed: seed, Seconds: seconds, Quick: quick, Clients: map[string]int{}, Shards: nShards,
	}
	for _, w := range workloadNames {
		env.Clients[w] = clientsOf(w)
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; then the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	out      string
	scratch  string
}

func main() {
	var o options
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "one of "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request streams")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window (mobile-tour: a fixed 2000 queries per client per second)")
	flag.IntVar(&o.trace, "trace", 0, "1: also run the traced pass and print the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "10 000 objects and a tenth of the warm-up: a smoke run, not a measurement")
	flag.StringVar(&o.out, "out", "", "write the full result (and, with -trace 1, <out>.trace.jsonl) to this file")
	flag.StringVar(&o.scratch, "scratch", filepath.Join(".bench_build", "scratch"), "directory for the moving-objects WAL")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare base.json new.json")
	flag.Parse()

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare base.json new.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if worse {
			os.Exit(1)
		}
	case o.workload == "all":
		if err := runAll(o); err != nil {
			fatal(1, "%v", err)
		}
	case slices.Contains(workloadNames, o.workload):
		res, err := runWorkload(o)
		if err != nil {
			fatal(1, "%v", err)
		}
		if o.out != "" {
			rep := report{Env: currentEnvironment(o.seed, o.seconds, o.quick), Workloads: map[string]*result{o.workload: res}}
			if err := writeJSON(o.out, rep); err != nil {
				fatal(1, "%v", err)
			}
		}
		printResult(o, res)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		fatal(2, "unknown -workload %q: want one of %s, or all", o.workload, strings.Join(workloadNames, ", "))
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runWorkload runs one workload in this process.
func runWorkload(o options) (*result, error) {
	size := fullSize
	if o.quick {
		size = quickSize
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	e := newEnv(size.objects)
	p := &pass{workload: o.workload, seed: o.seed, seconds: o.seconds, size: size, scratch: o.scratch}
	res := &result{}
	if o.trace == 0 {
		w, metrics, err := untraced(e, p)
		if err != nil {
			return nil, err
		}
		res.fill(w, metrics)
		return res, nil
	}
	return res, tracedRun(e, p, o, res)
}

func (r *result) fill(w *window, metrics map[string]metricValue) {
	r.Attempted += w.attempted
	r.Failed += w.failed
	r.Notes = append(r.Notes, w.notes...)
	r.Correct = r.Failed == 0
	if r.Metrics == nil {
		r.Metrics = metrics
	}
}

// tracedRun is `-trace 1`: the equivalence replay, an untraced pass and a
// traced pass of half the window each, then the replays and probes that fill
// in the remaining layers. End-to-end numbers for the record come from
// `-trace 0` runs; the half-length untraced pass here exists to give the
// process counters and the base of trace.overhead_frac.
func tracedRun(e *env, p *pass, o options, res *result) error {
	cutsDiffer, err := checkEquivalence(e, p)
	if err != nil {
		res.Notes = append(res.Notes, "traced composition differs from production: "+err.Error())
		res.Failed++
	}
	if cutsDiffer > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("equivalence replay: %d responses differed in index cuts only (pool-state dependent, see README)", cutsDiffer))
	}
	res.Attempted++

	half := *p
	half.seconds = p.seconds / 2
	half.size.setups = 1
	plain, metrics, err := untraced(e, &half)
	if err != nil {
		return err
	}
	res.fill(plain, metrics)

	tp := half
	if tp.tr, err = newTracer(p.size.spans); err != nil {
		return err
	}
	defer tp.tr.free()
	l, err := tp.setUp(e)
	if err != nil {
		return err
	}
	w, err := tp.measureAndClose(e, l)
	if err != nil {
		return err
	}
	tracedMetrics := w.results(p.workload, l.setupS)
	res.fill(w, nil)

	lay := map[string]float64{}
	spans := tp.tr.recorded()
	analyse(spans, lay)
	if d := tp.tr.dropped.Load(); d > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d spans dropped: raise sizing.spans", d))
	}
	if err := codecReplay(slices.Concat(tp.codec[:]...), lay); err != nil {
		return err
	}
	indexProbes(e, lay)
	lay["gen.build_req_ns"] = genProbe(e, p)
	lay["wal.recover_ms"] = float64(w.recoverNs) / 1e6

	ops := float64(metrics["ops_per_s"].Samples)
	lay["proc.allocs_per_op"] = float64(plain.mem1.Mallocs-plain.mem0.Mallocs) / ops
	lay["proc.alloc_bytes_per_op"] = float64(plain.mem1.TotalAlloc-plain.mem0.TotalAlloc) / ops
	lay["proc.gc_cycles"] = float64(plain.mem1.NumGC - plain.mem0.NumGC)
	lay["proc.gc_pause_total_ms"] = float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs) / 1e6
	lay["proc.gc_cpu_frac"] = plain.mem1.GCCPUFraction
	lay["proc.ctx_switches_per_op"] = float64(plain.ctxSw) / ops
	lay["proc.sys_cpu_frac"] = plain.sysMs / plain.cpuMs
	lay["proc.goroutines_end"] = float64(runtime.NumGoroutine())
	lay["trace.overhead_frac"] = 1 - tracedMetrics["ops_per_s"].Value/metrics["ops_per_s"].Value

	tl := sumTallies(plain.tallies)
	lay["core.cache_ops_per_query"] = mean(float64(tl.cacheOps), tl.queries)
	lay["core.false_miss_frac"] = mean(float64(tl.falseMiss), int(tl.resultBytes))
	lay["server.index_bytes_frac"] = mean(float64(tp.tr.indexBytes.Load()), int(tp.tr.respBytes.Load()))

	res.Layers = map[string]metricValue{}
	for _, d := range driverPerLayer() {
		v := lay[d.Name]
		if mv, ok := metrics[d.Name]; ok { // the workload-specific end-to-end metrics
			v = mv.Value
		}
		if !d.definedOn(p.workload) {
			v = 0
		}
		res.Layers[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if o.out != "" {
		return writeJSONL(strings.TrimSuffix(o.out, ".json")+".trace.jsonl", spans)
	}
	return nil
}

// printResult prints every metric by name with its unit, then — as the last
// line — the object the driver reads.
func printResult(o options, res *result) {
	show := func(title string, defs []metricDef, vals map[string]metricValue) {
		fmt.Printf("# %s, %s, seed %d\n", title, o.workload, o.seed)
		for _, d := range defs {
			mv, ok := vals[d.Name]
			if !ok {
				continue
			}
			extra := ""
			if mv.Samples > 0 {
				extra = fmt.Sprintf("  n=%d", mv.Samples)
			}
			if len(mv.Slices) > 0 {
				extra += fmt.Sprintf("  slices min %.6g max %.6g", slices.Min(mv.Slices), slices.Max(mv.Slices))
			}
			fmt.Printf("%-36s %14.6g %-6s%s\n", d.Name, mv.Value, d.Unit, extra)
		}
	}
	show("end to end (untraced)", endToEnd, res.Metrics)
	defs := driverEndToEnd()
	vals := res.Metrics
	if o.trace != 0 {
		show("per layer (traced)", perLayer, res.Layers)
		defs, vals = driverPerLayer(), res.Layers
	}
	for _, n := range res.Notes {
		fmt.Printf("# note: %s\n", n)
	}
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]driverMetric{}}
	for _, d := range defs {
		line.Metrics[d.Name] = driverMetric{vals[d.Name].Value, d.Unit}
	}
	b, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Println(string(b))
}

// runAll re-executes this binary once per workload, so that peak_rss_mb is
// each workload's own, and merges the result files.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Env: currentEnvironment(o.seed, o.seconds, o.quick), Workloads: map[string]*result{}}
	failed := false
	for _, name := range workloadNames {
		part := filepath.Join(o.scratch, fmt.Sprintf("part-%d-%s.json", os.Getpid(), name))
		args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(o.trace), "-scratch", o.scratch, "-out", part}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		b, err := os.ReadFile(part)
		if err != nil {
			return fmt.Errorf("%s: %v (%v)", name, runErr, err)
		}
		os.Remove(part)
		os.Remove(strings.TrimSuffix(part, ".json") + ".trace.jsonl")
		var one report
		if err := json.Unmarshal(b, &one); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rep.Workloads[name] = one.Workloads[name]
		failed = failed || runErr != nil
	}
	if o.out != "" {
		if err := writeJSON(o.out, rep); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("at least one workload failed its checks")
	}
	return nil
}
