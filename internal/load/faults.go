package load

import (
	"sort"
	"time"
)

// Chaos injection. A fault scenario is an ordinary Spec plus a schedule of
// shard crash-restarts fired at fixed fractions of the run; the harness
// keeps driving its open-loop schedule straight through them, so the SLO
// envelope judges exactly what a fleet of mobile users would experience
// while a shard dies: the router waiting out the WAL restart either absorbs
// the fault or the error and latency counters say it didn't.

// FaultEvent schedules one fault: at AtFrac of the run duration, Shard is
// killed and at once restarted from its WAL — the tightest crash-recovery
// window the harness can drive.
type FaultEvent struct {
	AtFrac float64
	Shard  int
}

// Injector is the backend's chaos surface; cluster.InProcess satisfies it
// directly. Kill leaves the shard down until Restart recovers it from its
// WAL, and the router waits it out meanwhile. Kill must be safe to call on
// an already-dead shard and Restart on a live one (both are no-ops there).
type Injector interface {
	Kill(shard int)
	Restart(shard int) error
}

// injectFaults runs the fault schedule against the injector, sleeping until
// each event's offset into the run. It returns when the schedule is done or
// stop closes. Restart errors are reported through onErr (they count as
// harness errors: a shard that cannot recover fails the scenario's zero-
// error SLO via the queries that keep failing).
func injectFaults(events []FaultEvent, inj Injector, dur time.Duration,
	start time.Time, stop <-chan struct{}, onErr func(error)) {
	sorted := append([]FaultEvent(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].AtFrac < sorted[j].AtFrac })
	for _, ev := range sorted {
		at := time.Duration(ev.AtFrac * float64(dur))
		if d := at - time.Since(start); d > 0 {
			select {
			case <-time.After(d):
			case <-stop:
				return
			}
		}
		inj.Kill(ev.Shard)
		if err := inj.Restart(ev.Shard); err != nil && onErr != nil {
			onErr(err)
		}
	}
}

// FaultMatrix returns the chaos scenarios. They live outside Matrix() —
// "-scenario all" and the benchmark harness run fault-free — and require a
// backend that exposes an Injector (proload -inprocess). Names are stable:
// CI's chaos smoke gate refers to them.
func FaultMatrix() []Spec {
	specs := []Spec{
		{
			Name:        "shard-crash-recovery",
			Description: "a shard crash-restarts from its WAL twice mid-run; retries ride it out with zero errors",
			RangeFrac:   0.45, KNNFrac: 0.35, JoinFrac: 0.05, UpdateFrac: 0.15,
			Poisson: true, Shape: ShapeUniform, UpdateBatch: 4,
			Faults: []FaultEvent{
				{AtFrac: 0.30, Shard: 1},
				{AtFrac: 0.60, Shard: 2},
			},
			SLO: SLO{
				MinAchievedFrac: 0.85,
				MaxErrorFrac:    0,
				MaxShedFrac:     0.05,
				// Queries in flight across the crash window wait in the
				// router's retry loop until the WAL restart lands; the tail
				// envelope absorbs that, the error envelope does not budge.
				MaxP99:  1 * time.Second,
				MaxP999: 3 * time.Second,
			},
		},
	}
	for i := range specs {
		specs[i] = specs[i].normalized()
	}
	return specs
}
