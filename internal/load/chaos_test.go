package load

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/wal"
	"repro/internal/wire"
)

// durableCluster builds the chaos-capable backend the fault scenarios need:
// per-shard WALs for crash recovery.
func durableCluster(t *testing.T) *cluster.InProcess {
	t.Helper()
	ds := dataset.GenerateNE(dataset.Params{N: 4000, Seed: 7})
	cl, err := cluster.NewInProcess(ds.Objects, cluster.InProcessConfig{
		Shards: 4,
		Sizer:  ds.SizeOf,
		WALDir: t.TempDir(),
		WAL:    wal.Options{NoSync: true, CheckpointBytes: 64 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// countingInjector is the cluster's chaos surface with a count of the
// faults that actually fired: the witness that a scenario injected them.
type countingInjector struct {
	*cluster.InProcess
	kills, restarts atomic.Int64
}

func (c *countingInjector) Kill(s int) {
	c.kills.Add(1)
	c.InProcess.Kill(s)
}

func (c *countingInjector) Restart(s int) error {
	c.restarts.Add(1)
	return c.InProcess.Restart(s)
}

// runScenario runs the named scenario against cl and returns its result
// and the injector that counted the faults its schedule fired.
func runScenario(t *testing.T, name string, cl *cluster.InProcess) (*Result, *countingInjector) {
	t.Helper()
	inj := &countingInjector{InProcess: cl}
	sp, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Spec:         sp,
		TargetQPS:    400,
		Duration:     time.Second,
		Users:        50_000,
		Workers:      2,
		Seed:         11,
		NewTransport: func(int) (wire.Transport, error) { return cl.Router, nil },
		Release:      cl.Router.ReleaseResponse,
		Injector:     inj,
		Cluster:      cl.Router.Stats().Snapshot,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, inj
}

// TestLoadChaosCrashRecovery drives the shard-crash-recovery scenario end
// to end: two shards crash-restart from their WALs mid-run and the router
// waits each one out — zero protocol errors reach a user.
func TestLoadChaosCrashRecovery(t *testing.T) {
	cl := durableCluster(t)
	res, inj := runScenario(t, "shard-crash-recovery", cl)
	if res.Errors != 0 {
		t.Fatalf("%d protocol errors leaked through the crash-restarts", res.Errors)
	}
	if res.WireOK == 0 {
		t.Fatal("nothing completed")
	}
	if k, r := inj.kills.Load(), inj.restarts.Load(); k != 2 || r != 2 {
		t.Fatalf("the schedule fired %d kills and %d restarts, want 2 and 2", k, r)
	}
}

// TestLoadClusterCountersPerRun runs a fault-free scenario on a backend
// whose router already counted retries: a request waited out a shard's
// crash-restart before the run. The retry counter the run reports is its
// own, not the total the backend carries from before.
func TestLoadClusterCountersPerRun(t *testing.T) {
	cl := durableCluster(t)
	cl.Kill(1)
	restarted := make(chan error, 1)
	go func() {
		for cl.Router.Stats().Shard(1).Retries.Load() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		restarted <- cl.Restart(1)
	}()
	if _, err := cl.Router.RoundTrip(&wire.Request{Client: 1, Q: query.NewRange(geom.R(0, 0, 1, 1))}); err != nil {
		t.Fatalf("request across the restart: %v", err)
	}
	if err := <-restarted; err != nil {
		t.Fatal(err)
	}
	if cl.Router.Snapshot().Retries() == 0 {
		t.Fatal("the request across the restart counted no retry")
	}
	res, _ := runScenario(t, "baseline", cl)
	if res.Errors != 0 || res.WireOK == 0 {
		t.Fatalf("baseline after the restart: %d ok, %d errors", res.WireOK, res.Errors)
	}
	if res.Retries != 0 {
		t.Fatalf("fault-free run reported retries=%d", res.Retries)
	}
}

// TestLoadFaultSpecNeedsInjector pins the config contract: a fault schedule
// without a chaos backend is a setup error, not a silently fault-free run.
func TestLoadFaultSpecNeedsInjector(t *testing.T) {
	sp, err := Lookup("shard-crash-recovery")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{
		Spec:         sp,
		NewTransport: func(int) (wire.Transport, error) { return nil, nil },
	})
	if err == nil {
		t.Fatal("Run accepted a fault schedule without an Injector")
	}
}

// TestFaultMatrixDisjoint keeps the chaos scenarios out of the regular
// matrix ("-scenario all" and the benchmark harness must stay fault-free)
// while Lookup still resolves them.
func TestFaultMatrixDisjoint(t *testing.T) {
	for _, s := range Matrix() {
		if len(s.Faults) > 0 {
			t.Fatalf("regular scenario %q schedules faults", s.Name)
		}
	}
	for _, s := range FaultMatrix() {
		if len(s.Faults) == 0 {
			t.Fatalf("fault scenario %q schedules no faults", s.Name)
		}
		got, err := Lookup(s.Name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", s.Name, err)
		}
		if got.Name != s.Name || len(got.Faults) != len(s.Faults) {
			t.Fatalf("Lookup(%q) returned a different spec", s.Name)
		}
		if s.SLO.MaxErrorFrac != 0 {
			t.Fatalf("fault scenario %q tolerates errors (MaxErrorFrac=%v); a crash-restart must be invisible",
				s.Name, s.SLO.MaxErrorFrac)
		}
	}
}
