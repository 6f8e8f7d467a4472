package load

import (
	"sort"
	"time"
)

// Chaos injection. A fault scenario is an ordinary Spec plus a schedule of
// shard-level faults fired at fixed fractions of the run; the harness keeps
// driving its open-loop schedule straight through them, so the SLO envelope
// judges exactly what a fleet of mobile users would experience while a
// shard dies: a promoted standby or the router waiting out a restart either
// absorbs the fault or the error and latency counters say it didn't.

// FaultKind is what one scheduled fault does to a shard.
type FaultKind uint8

const (
	// FaultKillShard crash-stops the shard and leaves it down. Only
	// survivable with a warm standby, which the kill promotes.
	FaultKillShard FaultKind = iota
	// FaultRestartShard restarts a previously killed shard from its WAL.
	FaultRestartShard
	// FaultCrashRestart kills the shard and immediately restarts it from
	// its WAL — the tightest crash-recovery window the harness can drive.
	FaultCrashRestart
)

func (k FaultKind) String() string {
	switch k {
	case FaultKillShard:
		return "kill"
	case FaultRestartShard:
		return "restart"
	case FaultCrashRestart:
		return "crash-restart"
	default:
		return "unknown"
	}
}

// FaultEvent schedules one fault: at AtFrac of the run duration, Kind fires
// against Shard.
type FaultEvent struct {
	AtFrac float64
	Kind   FaultKind
	Shard  int
}

// Injector is the backend's chaos surface; cluster.InProcess satisfies it
// directly. Kill promotes the shard's warm standby when the backend runs
// one; otherwise the shard is down until Restart recovers it from its WAL,
// and the router waits it out. Kill must be safe to call on an
// already-dead shard and Restart on a live one (both are no-ops there).
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
		switch ev.Kind {
		case FaultKillShard:
			inj.Kill(ev.Shard)
		case FaultRestartShard:
			if err := inj.Restart(ev.Shard); err != nil && onErr != nil {
				onErr(err)
			}
		case FaultCrashRestart:
			inj.Kill(ev.Shard)
			if err := inj.Restart(ev.Shard); err != nil && onErr != nil {
				onErr(err)
			}
		}
	}
}

// NeedsStandby reports whether a fault schedule calls for warm standbys:
// it has a FaultKillShard, the one fault only a promoted standby survives.
// A schedule of crash-restarts runs without standbys, so the shard that
// serves after each one is the primary its WAL restored rather than a
// standby promoted in its place.
func NeedsStandby(faults []FaultEvent) bool {
	for _, ev := range faults {
		if ev.Kind == FaultKillShard {
			return true
		}
	}
	return false
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
				{AtFrac: 0.30, Kind: FaultCrashRestart, Shard: 1},
				{AtFrac: 0.60, Kind: FaultCrashRestart, Shard: 2},
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
		{
			Name:        "replica-failover",
			Description: "a primary dies for good at 40%; the router promotes the warm replica with zero errors",
			RangeFrac:   0.50, KNNFrac: 0.35, JoinFrac: 0.05, UpdateFrac: 0.10,
			Poisson: true, Shape: ShapeUniform, UpdateBatch: 4,
			Faults: []FaultEvent{
				{AtFrac: 0.40, Kind: FaultKillShard, Shard: 1},
			},
			SLO: SLO{
				MinAchievedFrac: 0.85,
				MaxErrorFrac:    0,
				MaxShedFrac:     0.05,
				MaxP99:          1 * time.Second,
				MaxP999:         3 * time.Second,
			},
		},
	}
	for i := range specs {
		specs[i] = specs[i].normalized()
	}
	return specs
}
