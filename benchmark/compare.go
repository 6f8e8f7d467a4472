package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges new against base for one metric. A metric whose in-run
// spread (quartile distance over median of its window slices, on either side)
// is wider than its bound cannot be told from noise and is unresolved,
// whichever way it moved. A zero bound means any worsening counts.
func verdict(d metricDef, base, new metricValue) string {
	if max(spread(base.Slices), spread(new.Slices)) > d.Bound && d.Bound > 0 {
		return verdictUnresolved
	}
	worse := new.Value > base.Value*(1+d.Bound)
	if d.Better == "higher" {
		worse = new.Value < base.Value*(1-d.Bound)
	}
	if worse {
		return verdictWorse
	}
	return verdictOK
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per workload × end-to-end metric present in
// both files and reports whether any row is worse.
func compareFiles(out io.Writer, basePath, newPath string) (anyWorse bool, err error) {
	base, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "base %s (commit %s, seed %d)\nnew  %s (commit %s, seed %d)\n",
		basePath, base.Env.Commit, base.Env.Seed, newPath, cur.Env.Commit, cur.Env.Seed)
	if base.Env.CPUModel != cur.Env.CPUModel || base.Env.GOMAXPROCS != cur.Env.GOMAXPROCS ||
		base.Env.Seconds != cur.Env.Seconds || base.Env.Quick != cur.Env.Quick {
		fmt.Fprintln(out, "warning: the two files were not measured under the same conditions")
	}
	fmt.Fprintf(out, "%-15s %-18s %14s %14s %22s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, wl := range workloadNames {
		b, n := base.Workloads[wl], cur.Workloads[wl]
		if b == nil || n == nil {
			continue
		}
		for _, d := range endToEnd {
			bv, okB := b.Metrics[d.Name]
			nv, okN := n.Metrics[d.Name]
			if !okB || !okN {
				continue
			}
			v := verdict(d, bv, nv)
			anyWorse = anyWorse || v == verdictWorse
			ratio := "-"
			if bv.Value != 0 {
				ratio = fmt.Sprintf("%.4f of %.6g", nv.Value/bv.Value, bv.Value)
			}
			fmt.Fprintf(out, "%-15s %-18s %14.6g %14.6g %22s %6.1f%%  %s\n", wl, d.Name, bv.Value, nv.Value, ratio, d.Bound*100, v)
		}
	}
	return anyWorse, nil
}
