package load

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/wal"
	"repro/internal/wire"
)

// durableCluster builds the chaos-capable backend the fault scenarios need:
// per-shard WALs for crash recovery, optional warm replicas, and a hair
// trigger on the router's failover so a kill is absorbed within one query.
func durableCluster(t *testing.T, replicas bool) *cluster.InProcess {
	t.Helper()
	ds := dataset.GenerateNE(dataset.Params{N: 4000, Seed: 7})
	cl, err := cluster.NewInProcess(ds.Objects, cluster.InProcessConfig{
		Shards:        4,
		Sizer:         ds.SizeOf,
		WALDir:        t.TempDir(),
		WAL:           wal.Options{NoSync: true, CheckpointBytes: 64 << 10},
		Replicas:      replicas,
		RetryAttempts: 4,
		RetryBackoff:  2 * time.Millisecond,
		FailThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func runScenario(t *testing.T, name string, cl *cluster.InProcess) *Result {
	t.Helper()
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
		Injector:     cl,
		Cluster:      cl.Router.Stats().Snapshot,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLoadChaosCrashRecovery drives the shard-crash-recovery scenario end
// to end: two shards crash-restart from their WALs mid-run and the router's
// retry/redial path absorbs both — zero protocol errors reach a user.
func TestLoadChaosCrashRecovery(t *testing.T) {
	cl := durableCluster(t, false)
	res := runScenario(t, "shard-crash-recovery", cl)
	if res.Errors != 0 {
		t.Fatalf("%d protocol errors leaked through the crash-restarts", res.Errors)
	}
	if res.WireOK == 0 {
		t.Fatal("nothing completed")
	}
	if res.Redials == 0 {
		t.Fatal("no redials counted: the faults did not fire or the router never noticed")
	}
	if res.Failovers != 0 {
		t.Fatalf("%d replica promotions in a replica-less cluster", res.Failovers)
	}
}

// TestLoadClusterCountersPerRun runs a fault-free scenario on the backend a
// chaos scenario just crashed and restarted: the failover counters it
// reports are its own, not the totals the backend carries from the run
// before.
func TestLoadClusterCountersPerRun(t *testing.T) {
	cl := durableCluster(t, false)
	if res := runScenario(t, "shard-crash-recovery", cl); res.Redials == 0 {
		t.Fatal("no redials counted: the faults did not fire")
	}
	res := runScenario(t, "baseline", cl)
	if res.Errors != 0 || res.WireOK == 0 {
		t.Fatalf("baseline after recovery: %d ok, %d errors", res.WireOK, res.Errors)
	}
	if res.Redials != 0 || res.Retries != 0 || res.Failovers != 0 {
		t.Fatalf("fault-free run reported retries=%d failovers=%d redials=%d",
			res.Retries, res.Failovers, res.Redials)
	}
}

// TestLoadChaosReplicaFailover kills a primary for good mid-run: the warm
// replica is promoted and the schedule finishes with zero errors.
func TestLoadChaosReplicaFailover(t *testing.T) {
	cl := durableCluster(t, true)
	res := runScenario(t, "replica-failover", cl)
	if res.Errors != 0 {
		t.Fatalf("%d protocol errors leaked through the failover", res.Errors)
	}
	if res.Failovers == 0 {
		t.Fatal("no replica promotion counted: the kill did not fire or the router never failed over")
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
			t.Fatalf("fault scenario %q tolerates errors (MaxErrorFrac=%v); failover must be invisible",
				s.Name, s.SLO.MaxErrorFrac)
		}
	}
}
