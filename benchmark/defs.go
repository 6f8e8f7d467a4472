package main

// Names in this file are the benchmark's contract: workloads, end-to-end
// metrics and per-layer metrics are reported under exactly these names, and
// BENCHMARK.json at the repository root repeats them
// (TestBenchmarkJSONMatchesDefs keeps the two in step). A change that claims
// a gain may edit neither.

const (
	wlSmallReads = "small-reads"
	wlBigScans   = "big-scans"
	wlMoving     = "moving-objects"
	wlTour       = "mobile-tour"
)

// workloadNames lists the workloads in the order `-workload all` runs them.
var workloadNames = []string{wlSmallReads, wlBigScans, wlMoving, wlTour}

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base value by which the metric may worsen
	// before -compare (and the driver) count a regression. Zero on per-layer
	// metrics, which are never gated.
	Bound float64
	// On lists the workloads that define the metric; nil means all four.
	On []string
}

func (d metricDef) definedOn(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd is the issue's thirteen end-to-end metrics. The eight defined on
// every workload (On == nil, failed_frac aside) are BENCHMARK.json's
// end_to_end list; the driver needs every gated metric on every workload and
// never zero, so the workload-specific four ride in its per_layer list and
// failed_frac is carried by the result line's attempted/failed/correct.
//
// Bounds were set from the spread of ten runs on ten seeds per workload,
// round after round (README "Steadiness"). One bound covers a metric on all
// four workloads, so the noisiest sets it; 25 % is the contract's cap and
// what a shared box that drifts by ±8 % leaves for wall-clock metrics.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "query_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "update_p50_us", Unit: "us", Better: "lower", Bound: 0.25, On: []string{wlMoving}},
	{Name: "update_p99_us", Unit: "us", Better: "lower", Bound: 0.25, On: []string{wlMoving}},
	{Name: "wire_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_kop", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.2},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Bound: 0},
	{Name: "cache_hit_rate", Unit: "ratio", Better: "higher", Bound: 0.05, On: []string{wlTour}},
	{Name: "local_answer_frac", Unit: "ratio", Better: "higher", Bound: 0.05, On: []string{wlTour}},
	{Name: "modelled_resp_ms", Unit: "ms", Better: "lower", Bound: 0.05},
}

// perLayer is the traced pass's metrics, layer by layer. README.md says
// which end-to-end metric on which workload each one is predicted to move.
var perLayer = []metricDef{
	{Name: "wire.transit_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_req_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_req_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.codec_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "wire.req_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.route_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.fanout", Unit: "count", Better: "lower"},
	{Name: "cluster.update_route_self_us", Unit: "us", Better: "lower", On: []string{wlMoving}},
	{Name: "server.execute_us", Unit: "us", Better: "lower"},
	{Name: "server.execute_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.visited_nodes_per_query", Unit: "count", Better: "lower"},
	{Name: "server.nodes_per_result", Unit: "ratio", Better: "lower"},
	{Name: "server.index_bytes_frac", Unit: "ratio", Better: "lower"},
	{Name: "server.apply_updates_us", Unit: "us", Better: "lower", On: []string{wlMoving}},
	{Name: "server.apply_us_per_move", Unit: "us", Better: "lower", On: []string{wlMoving}},
	{Name: "server.queries_during_apply_p50_us", Unit: "us", Better: "lower", On: []string{wlMoving}},
	{Name: "wal.append_us", Unit: "us", Better: "lower", On: []string{wlMoving}},
	{Name: "wal.ops_per_append", Unit: "ratio", Better: "higher", On: []string{wlMoving}},
	{Name: "wal.bytes_per_update", Unit: "B", Better: "lower", On: []string{wlMoving}},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower", On: []string{wlMoving}},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower", On: []string{wlMoving}},
	{Name: "wal.recover_ms", Unit: "ms", Better: "lower", On: []string{wlMoving}},
	{Name: "rtree.bulkload_ms", Unit: "ms", Better: "lower"},
	{Name: "rtree.pack_ms", Unit: "ms", Better: "lower"},
	{Name: "rtree.clone_ms", Unit: "ms", Better: "lower"},
	{Name: "rtree.repack_ms", Unit: "ms", Better: "lower"},
	{Name: "bpt.build_ns_per_node", Unit: "ns", Better: "lower"},
	{Name: "core.client_self_us", Unit: "us", Better: "lower", On: []string{wlTour}},
	{Name: "core.cache_ops_per_query", Unit: "count", Better: "lower", On: []string{wlTour}},
	{Name: "core.false_miss_frac", Unit: "ratio", Better: "lower", On: []string{wlTour}},
	{Name: "core.remote_h_len", Unit: "count", Better: "lower", On: []string{wlTour}},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "proc.ctx_switches_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.sys_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "proc.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "gen.build_req_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// driverEndToEnd is what `-trace 0` prints on its last line: every
// end-to-end metric defined, and never zero, on all four workloads.
func driverEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.On == nil && d.Name != "failed_frac" {
			out = append(out, d)
		}
	}
	return out
}

// driverPerLayer is what `-trace 1` prints on its last line: the per-layer
// metrics plus the workload-specific end-to-end ones, zero where a workload
// does not define them.
func driverPerLayer() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, d := range endToEnd {
		if d.On != nil {
			out = append(out, d)
		}
	}
	return out
}
