package load

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/metrics"
)

// Result is one scenario run's outcome.
type Result struct {
	Scenario    string
	TargetQPS   float64
	AchievedQPS float64 // WireOK over the offered window
	Duration    time.Duration
	Users       int
	Workers     int

	Scheduled     int64 // arrivals generated on schedule
	WireSent      int64 // wire requests issued
	WireOK        int64 // wire requests answered without error
	Errors        int64 // wire requests that failed
	Timeouts      int64 // answered, but past Config.Timeout (subset of WireOK)
	Shed          int64 // arrivals dropped at the outstanding budget
	Updates       int64 // update batches (not individual mutations)
	UpdateRejects int64 // individual mutations the server rejected
	ShardErrors   int64 // shard sub-requests that failed (cluster only)

	Retries   int64 // shard round trips the router retried (cluster only)
	Failovers int64 // replica promotions (cluster only)
	Redials   int64 // shard reconnects after failure (cluster only)

	EdgeTier     bool  // the run went through an edge cache tier
	EdgeHits     int64 // queries the edge answered without touching the cluster
	EdgeMisses   int64 // cacheable queries the edge had to forward
	EdgeForwards int64 // all requests the edge relayed upstream

	Elastic  bool          // topology-op counters were sampled (cluster only)
	Splits   int64         // online shard splits during the run
	Merges   int64         // online shard merges during the run
	Handover time.Duration // total time spent inside topology cutovers

	BytesUp   int64
	BytesDown int64

	Mean time.Duration
	P50  time.Duration
	P99  time.Duration
	P999 time.Duration

	SLO        SLO
	Violations []string
}

// FillClusterDeltas fills the cluster-only fields with the counter movement
// between two snapshots of the routers' metrics.ClusterStats.
func (r *Result) FillClusterDeltas(before, after metrics.ClusterSnapshot) {
	r.Elastic = true
	r.ShardErrors = after.Errors() - before.Errors()
	r.Retries = after.Retries() - before.Retries()
	r.Failovers = after.Failovers() - before.Failovers()
	r.Redials = after.Redials() - before.Redials()
	r.Splits = after.Splits - before.Splits
	r.Merges = after.Merges - before.Merges
	r.Handover = time.Duration(after.HandoverNanos - before.HandoverNanos)
}

// CheckSLO evaluates the result against its SLO envelope and returns the
// violations (empty means the scenario passed).
func (r *Result) CheckSLO() []string {
	var v []string
	slo := r.SLO
	if slo.MinAchievedFrac > 0 && r.TargetQPS > 0 {
		if frac := r.AchievedQPS / r.TargetQPS; frac < slo.MinAchievedFrac {
			v = append(v, fmt.Sprintf("achieved %.0f qps is %.2f of the %.0f target (min %.2f)",
				r.AchievedQPS, frac, r.TargetQPS, slo.MinAchievedFrac))
		}
	}
	if r.WireSent > 0 {
		if frac := float64(r.Errors) / float64(r.WireSent); frac > slo.MaxErrorFrac {
			v = append(v, fmt.Sprintf("%d/%d wire errors (max frac %.3f)",
				r.Errors, r.WireSent, slo.MaxErrorFrac))
		}
	}
	if r.Scheduled > 0 {
		if frac := float64(r.Shed) / float64(r.Scheduled); frac > slo.MaxShedFrac {
			v = append(v, fmt.Sprintf("%d/%d arrivals shed (max frac %.3f)",
				r.Shed, r.Scheduled, slo.MaxShedFrac))
		}
	}
	if slo.MaxP99 > 0 && r.P99 > slo.MaxP99 {
		v = append(v, fmt.Sprintf("p99 %v exceeds %v", r.P99, slo.MaxP99))
	}
	if slo.MaxP999 > 0 && r.P999 > slo.MaxP999 {
		v = append(v, fmt.Sprintf("p999 %v exceeds %v", r.P999, slo.MaxP999))
	}
	return v
}

// Pass reports whether the run met its SLO.
func (r *Result) Pass() bool { return len(r.Violations) == 0 }

// ScenarioReport is the machine-readable form of a Result: flat keys,
// integer microseconds, stable names. Its json tags are the schema CI
// validates (ValidateReport), so a new counter is one field here.
type ScenarioReport struct {
	Scenario    string  `json:"scenario"`
	TargetQPS   float64 `json:"target_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	DurationSec float64 `json:"duration_sec"`
	Users       int     `json:"users"`
	Workers     int     `json:"workers"`

	Scheduled     int64 `json:"scheduled"`
	WireSent      int64 `json:"wire_sent"`
	WireOK        int64 `json:"wire_ok"`
	Errors        int64 `json:"errors"`
	Timeouts      int64 `json:"timeouts"`
	Shed          int64 `json:"shed"`
	Updates       int64 `json:"updates"`
	UpdateRejects int64 `json:"update_rejects"`
	ShardErrors   int64 `json:"shard_errors"`

	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
	Redials   int64 `json:"redials"`

	EdgeTier     bool  `json:"edge_tier"`
	EdgeHits     int64 `json:"edge_hits"`
	EdgeMisses   int64 `json:"edge_misses"`
	EdgeForwards int64 `json:"edge_forwards"`

	Elastic    bool  `json:"elastic"`
	Splits     int64 `json:"splits"`
	Merges     int64 `json:"merges"`
	HandoverUS int64 `json:"handover_us"`

	BytesUp   int64 `json:"bytes_up"`
	BytesDown int64 `json:"bytes_down"`

	MeanUS int64 `json:"mean_us"`
	P50US  int64 `json:"p50_us"`
	P99US  int64 `json:"p99_us"`
	P999US int64 `json:"p999_us"`

	SLOPass    bool     `json:"slo_pass"`
	Violations []string `json:"violations"`
}

// Report converts the result to its JSON schema form.
func (r *Result) Report() ScenarioReport {
	us := func(d time.Duration) int64 { return d.Microseconds() }
	v := r.Violations
	if v == nil {
		v = []string{}
	}
	return ScenarioReport{
		Scenario:    r.Scenario,
		TargetQPS:   r.TargetQPS,
		AchievedQPS: r.AchievedQPS,
		DurationSec: r.Duration.Seconds(),
		Users:       r.Users,
		Workers:     r.Workers,

		Scheduled:     r.Scheduled,
		WireSent:      r.WireSent,
		WireOK:        r.WireOK,
		Errors:        r.Errors,
		Timeouts:      r.Timeouts,
		Shed:          r.Shed,
		Updates:       r.Updates,
		UpdateRejects: r.UpdateRejects,
		ShardErrors:   r.ShardErrors,

		Retries:   r.Retries,
		Failovers: r.Failovers,
		Redials:   r.Redials,

		EdgeTier:     r.EdgeTier,
		EdgeHits:     r.EdgeHits,
		EdgeMisses:   r.EdgeMisses,
		EdgeForwards: r.EdgeForwards,

		Elastic:    r.Elastic,
		Splits:     r.Splits,
		Merges:     r.Merges,
		HandoverUS: us(r.Handover),

		BytesUp:   r.BytesUp,
		BytesDown: r.BytesDown,

		MeanUS: us(r.Mean),
		P50US:  us(r.P50),
		P99US:  us(r.P99),
		P999US: us(r.P999),

		SLOPass:    r.Pass(),
		Violations: v,
	}
}

// FileReport is the top-level JSON document proload emits: one entry per
// scenario run, in run order.
type FileReport struct {
	Scenarios []ScenarioReport `json:"scenarios"`
}

// MarshalReports renders runs as the proload JSON document.
func MarshalReports(results []*Result) ([]byte, error) {
	fr := FileReport{Scenarios: make([]ScenarioReport, 0, len(results))}
	for _, r := range results {
		fr.Scenarios = append(fr.Scenarios, r.Report())
	}
	return json.MarshalIndent(fr, "", "  ")
}

// ValidateReport checks a proload JSON document against the schema, which
// is ScenarioReport itself: the scenarios array exists and is non-empty,
// every entry carries every json-tagged field (renaming one silently breaks
// downstream tooling), every numeric field is non-negative, and the latency
// quantiles are ordered p50 <= p99 <= p999.
func ValidateReport(data []byte) error {
	var doc struct {
		Scenarios []map[string]json.RawMessage `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("load: report is not valid JSON: %w", err)
	}
	if len(doc.Scenarios) == 0 {
		return fmt.Errorf("load: report has no scenarios")
	}
	fields := reflect.VisibleFields(reflect.TypeOf(ScenarioReport{}))
	for i, sc := range doc.Scenarios {
		for _, f := range fields {
			if _, ok := sc[f.Tag.Get("json")]; !ok {
				return fmt.Errorf("load: scenario %d missing key %q", i, f.Tag.Get("json"))
			}
		}
		var r ScenarioReport
		raw, _ := json.Marshal(sc)
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("load: scenario %d malformed: %w", i, err)
		}
		if r.Scenario == "" {
			return fmt.Errorf("load: scenario %d has an empty name", i)
		}
		for _, f := range fields {
			v := reflect.ValueOf(r).FieldByIndex(f.Index)
			if (v.CanInt() && v.Int() < 0) || (v.CanFloat() && v.Float() < 0) {
				return fmt.Errorf("load: scenario %q: %s is negative", r.Scenario, f.Tag.Get("json"))
			}
		}
		if r.P50US > r.P99US || r.P99US > r.P999US {
			return fmt.Errorf("load: scenario %q: quantiles out of order (p50=%d p99=%d p999=%d)",
				r.Scenario, r.P50US, r.P99US, r.P999US)
		}
	}
	return nil
}

// Fprint writes the human-readable run summary.
func (r *Result) Fprint(w io.Writer) {
	status := "PASS"
	if !r.Pass() {
		status = "FAIL"
	}
	fmt.Fprintf(w, "scenario %-20s %s\n", r.Scenario, status)
	fmt.Fprintf(w, "  target %.0f qps  achieved %.0f qps (%.1f%%)  %v  users=%d workers=%d\n",
		r.TargetQPS, r.AchievedQPS, 100*r.AchievedQPS/r.TargetQPS,
		r.Duration.Round(time.Millisecond), r.Users, r.Workers)
	fmt.Fprintf(w, "  ops: scheduled=%d wire=%d ok=%d errors=%d timeouts=%d shed=%d shard_errors=%d updates=%d rejects=%d\n",
		r.Scheduled, r.WireSent, r.WireOK, r.Errors, r.Timeouts, r.Shed, r.ShardErrors, r.Updates, r.UpdateRejects)
	if r.Retries > 0 || r.Failovers > 0 || r.Redials > 0 {
		fmt.Fprintf(w, "  failover: retries=%d promotions=%d redials=%d\n",
			r.Retries, r.Failovers, r.Redials)
	}
	if r.Elastic && (r.Splits > 0 || r.Merges > 0) {
		fmt.Fprintf(w, "  elastic: splits=%d merges=%d handover=%v\n",
			r.Splits, r.Merges, r.Handover.Round(time.Microsecond))
	}
	if r.EdgeTier {
		rate := 0.0
		if t := r.EdgeHits + r.EdgeMisses; t > 0 {
			rate = float64(r.EdgeHits) / float64(t)
		}
		fmt.Fprintf(w, "  edge: hits=%d misses=%d (%.1f%%) forwarded=%d upstream_cut=%.1f%%\n",
			r.EdgeHits, r.EdgeMisses, 100*rate,
			r.EdgeForwards, 100*(1-float64(r.EdgeForwards)/float64(max(r.WireSent, 1))))
	}
	fmt.Fprintf(w, "  latency: mean=%v p50=%v p99=%v p999=%v  bytes: up=%d down=%d\n",
		r.Mean.Round(time.Microsecond), r.P50, r.P99, r.P999, r.BytesUp, r.BytesDown)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  SLO violation: %s\n", v)
	}
}
