package load

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sampleResult() *Result {
	r := &Result{
		Scenario:    "baseline",
		TargetQPS:   1000,
		AchievedQPS: 990,
		Duration:    2 * time.Second,
		Users:       100_000,
		Workers:     4,
		Scheduled:   1500, WireSent: 1500, WireOK: 1500, Updates: 100,
		Retries: 3,
		BytesUp: 50_000, BytesDown: 4_000_000,
		Mean: time.Millisecond, P50: time.Millisecond,
		P99: 4 * time.Millisecond, P999: 8 * time.Millisecond,
		SLO: defaultSLO,
	}
	r.Violations = r.CheckSLO()
	return r
}

// TestReportRoundTrip pins the JSON contract end to end: marshal passes
// the schema validator, and the values survive the trip.
func TestReportRoundTrip(t *testing.T) {
	data, err := MarshalReports([]*Result{sampleResult()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(data); err != nil {
		t.Fatalf("self-produced report fails validation: %v", err)
	}
	var fr FileReport
	if err := json.Unmarshal(data, &fr); err != nil {
		t.Fatal(err)
	}
	sc := fr.Scenarios[0]
	if sc.Scenario != "baseline" || sc.WireOK != 1500 || sc.P999US != 8000 || !sc.SLOPass {
		t.Fatalf("round trip mangled values: %+v", sc)
	}
	if sc.Retries != 3 {
		t.Fatalf("retry counter mangled: %+v", sc)
	}
}

// TestValidateReportRejects walks the failure modes the CI schema gate
// must catch.
func TestValidateReportRejects(t *testing.T) {
	good, err := MarshalReports([]*Result{sampleResult()})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		errPart string
	}{
		{"not json", func(b []byte) []byte { return []byte("{") }, "valid JSON"},
		{"no scenarios", func(b []byte) []byte { return []byte(`{"scenarios": []}`) }, "no scenarios"},
		{"missing key", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"p999_us"`), []byte(`"p999_gone"`), 1)
		}, `missing key "p999_us"`},
		{"negative counter", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"wire_ok": 1500`), []byte(`"wire_ok": -1`), 1)
		}, "negative"},
		{"missing failover key", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"retries"`), []byte(`"retries_gone"`), 1)
		}, `missing key "retries"`},
		{"negative failover counter", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"retries": 3`), []byte(`"retries": -3`), 1)
		}, "negative"},
		{"negative mix counter", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"updates": 100`), []byte(`"updates": -100`), 1)
		}, "updates is negative"},
		{"negative rate", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"target_qps": 1000`), []byte(`"target_qps": -1`), 1)
		}, "target_qps is negative"},
		{"missing mix key", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"shard_errors"`), []byte(`"shard_errors_gone"`), 1)
		}, `missing key "shard_errors"`},
		{"quantile order", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"p999_us": 8000`), []byte(`"p999_us": 1`), 1)
		}, "out of order"},
		{"empty name", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"scenario": "baseline"`), []byte(`"scenario": ""`), 1)
		}, "empty name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateReport(tc.mutate(append([]byte(nil), good...)))
			if err == nil {
				t.Fatalf("validator accepted a report with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Fatalf("error %q does not mention %q", err, tc.errPart)
			}
		})
	}
}

// TestValidateReportAcceptsRetiredKeys: a report written before a counter
// was retired still validates. It carries every current key plus the keys
// of the removed redial counter, standby promotions and edge tier.
func TestValidateReportAcceptsRetiredKeys(t *testing.T) {
	data, err := MarshalReports([]*Result{sampleResult()})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Scenarios []map[string]any `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	retired := map[string]any{
		"redials": 2, "failovers": 1, "edge_tier": true,
		"edge_hits": 40, "edge_misses": 10, "edge_forwards": 60,
	}
	for k, v := range retired {
		if _, ok := doc.Scenarios[0][k]; ok {
			t.Fatalf("key %q is still in the schema", k)
		}
		doc.Scenarios[0][k] = v
	}
	old, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(old); err != nil {
		t.Fatalf("a report carrying retired keys fails validation: %v", err)
	}
}

// TestCheckSLO pins each envelope dimension independently.
func TestCheckSLO(t *testing.T) {
	base := func() *Result {
		r := sampleResult()
		r.Violations = nil
		return r
	}
	if r := base(); len(r.CheckSLO()) != 0 {
		t.Fatalf("healthy result violates SLO: %v", r.CheckSLO())
	}
	r := base()
	r.AchievedQPS = 100
	if v := r.CheckSLO(); len(v) == 0 || !strings.Contains(v[0], "target") {
		t.Errorf("under-achieved rate not caught: %v", v)
	}
	r = base()
	r.Errors = 10
	if v := r.CheckSLO(); len(v) == 0 || !strings.Contains(v[0], "errors") {
		t.Errorf("errors not caught: %v", v)
	}
	r = base()
	r.Timeouts = 3
	if v := r.CheckSLO(); len(v) != 1 || !strings.Contains(v[0], "3/1500 operations late or unanswered") {
		t.Errorf("timeouts not caught: %v", v)
	}
	r = base()
	r.WireOK -= 4
	if v := r.CheckSLO(); len(v) != 1 || !strings.Contains(v[0], "4 never") {
		t.Errorf("unanswered operations not caught: %v", v)
	}
	r = base()
	r.Shed = 500
	if v := r.CheckSLO(); len(v) == 0 || !strings.Contains(v[0], "shed") {
		t.Errorf("shedding not caught: %v", v)
	}
	r = base()
	r.P99 = time.Minute
	r.P999 = time.Minute
	if v := r.CheckSLO(); len(v) != 2 {
		t.Errorf("latency blowup caught %d violations, want 2: %v", len(v), v)
	}
}

// TestFprint smoke-checks the human rendering (it must never divide by a
// zero target or drop violations).
func TestFprint(t *testing.T) {
	r := sampleResult()
	r.Violations = []string{"synthetic violation"}
	var buf bytes.Buffer
	r.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "synthetic violation") {
		t.Fatalf("rendering lost the failure: %s", out)
	}
}
