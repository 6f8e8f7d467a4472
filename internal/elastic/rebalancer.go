// Package elastic implements the load-driven rebalancer over the cluster's
// online split/merge primitives: it watches per-shard object counts, splits
// shards that grow past a threshold, and folds cold sibling pairs back
// together (docs/ELASTIC.md).
//
// The rebalancer is deliberately a policy layer only — every mechanism
// (split plane selection, bulk transfer, the epoch-fenced cutover) lives in
// internal/cluster, so the same policies drive an in-process cluster, the
// prodb facade, and tests with a scripted fake.
package elastic

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Cluster is the topology surface the rebalancer drives. cluster.InProcess
// and the repro.ClusterServer facade implement it.
type Cluster interface {
	// LiveShards returns the slots currently owning a region.
	LiveShards() []int
	// SiblingOf returns s's KD sibling when both are mergeable leaves.
	SiblingOf(s int) (int, bool)
	// SplitShard splits s online into itself and a fresh slot.
	SplitShard(s int) error
	// MergeShards folds t back into its sibling s and retires t.
	MergeShards(s, t int) error
	// Stats exposes the router counters the decisions read (the per-shard
	// Objects gauges).
	Stats() *metrics.ClusterStats
}

// Config tunes the rebalancer. The zero value is not runnable: SplitObjects
// must be positive.
type Config struct {
	// SplitObjects splits a shard whose object count exceeds it.
	SplitObjects int64

	// MergeObjects folds a sibling leaf pair whose combined object count
	// sits at or below it (0 disables merging). Keep it well under
	// SplitObjects: a merge flushes every client, so the band between merge
	// and split is the hysteresis that prevents flapping. Values above half
	// of SplitObjects are rejected — a merged pair would immediately
	// re-trigger a split.
	MergeObjects int64

	// MinShards bounds the live shard count from below (default 1): merging
	// stops there. Splitting stops where the cluster refuses a new slot.
	MinShards int

	// Cooldown is the minimum time between topology operations (default 5s).
	// Splits and merges move data and — for merges — flush clients; the
	// cooldown keeps the rebalancer from thrashing while gauges settle.
	Cooldown time.Duration

	// Interval is Run's tick period (default 1s). Step may also be called
	// manually at any cadence.
	Interval time.Duration

	// OnEvent, when set, receives every attempted topology operation.
	OnEvent func(Event)
}

// Event describes one attempted topology operation.
type Event struct {
	Kind    string // "split" or "merge"
	Shard   int    // the shard split, or the merge survivor
	Target  int    // the merge victim (unset for splits)
	Objects int64  // trigger reading: shard objects (split) or combined (merge)
	Err     error  // nil on success
}

// Rebalancer drives one Cluster. Not safe for concurrent Step calls; Run
// serializes them on one goroutine.
type Rebalancer struct {
	cfg    Config
	cl     Cluster
	lastOp time.Time

	splits, merges int
}

// New validates cfg and builds a rebalancer.
func New(cl Cluster, cfg Config) (*Rebalancer, error) {
	if cl == nil {
		return nil, errors.New("elastic: Cluster is required")
	}
	if cfg.SplitObjects <= 0 {
		return nil, errors.New("elastic: SplitObjects must be positive")
	}
	if cfg.MergeObjects > cfg.SplitObjects/2 {
		return nil, fmt.Errorf("elastic: MergeObjects %d above half of SplitObjects %d would flap", cfg.MergeObjects, cfg.SplitObjects)
	}
	if cfg.MinShards <= 0 {
		cfg.MinShards = 1
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	return &Rebalancer{cfg: cfg, cl: cl}, nil
}

// Splits and Merges report how many operations this rebalancer has executed
// successfully.
func (rb *Rebalancer) Splits() int { return rb.splits }
func (rb *Rebalancer) Merges() int { return rb.merges }

// Step takes one decision at the given instant: execute at most one
// topology operation — the largest shard over SplitObjects, else the
// smallest sibling pair under MergeObjects. One operation per step keeps
// each cutover's gauge movement observable before the next decision.
func (rb *Rebalancer) Step(now time.Time) error {
	if !rb.lastOp.IsZero() && now.Sub(rb.lastOp) < rb.cfg.Cooldown {
		return nil
	}
	live := rb.cl.LiveShards()
	stats := rb.cl.Stats()

	// Split: pick the live shard furthest over the threshold.
	best, bestObjs := -1, rb.cfg.SplitObjects
	for _, s := range live {
		if objs := stats.Shard(s).Objects.Load(); objs > bestObjs {
			best, bestObjs = s, objs
		}
	}
	if best >= 0 {
		err := rb.cl.SplitShard(best)
		rb.finishOp(now, Event{Kind: "split", Shard: best, Objects: bestObjs, Err: err})
		if err == nil {
			rb.splits++
		}
		return err
	}

	// Merge: the smallest sibling pair with its combined count under the
	// merge threshold. Merging flushes clients, so only clearly cold pairs
	// qualify and only one merges per step.
	if rb.cfg.MergeObjects <= 0 || len(live) <= rb.cfg.MinShards {
		return nil
	}
	bestS, bestT, bestObjs := -1, -1, int64(0)
	for _, t := range live {
		s, ok := rb.cl.SiblingOf(t)
		if !ok || s == t {
			continue
		}
		objs := stats.Shard(s).Objects.Load() + stats.Shard(t).Objects.Load()
		if objs > rb.cfg.MergeObjects {
			continue
		}
		if bestS < 0 || objs < bestObjs {
			// Retire the younger slot: merging into the longer-lived
			// sibling keeps region churn local to the pair either way.
			if t < s {
				s, t = t, s
			}
			bestS, bestT, bestObjs = s, t, objs
		}
	}
	if bestS < 0 {
		return nil
	}
	err := rb.cl.MergeShards(bestS, bestT)
	rb.finishOp(now, Event{Kind: "merge", Shard: bestS, Target: bestT, Objects: bestObjs, Err: err})
	if err == nil {
		rb.merges++
	}
	return err
}

func (rb *Rebalancer) finishOp(now time.Time, ev Event) {
	if ev.Err == nil {
		rb.lastOp = now
	}
	if rb.cfg.OnEvent != nil {
		rb.cfg.OnEvent(ev)
	}
}

// Run ticks Step every cfg.Interval until stop closes. Step errors are
// reported through OnEvent (they carry the failed operation); Run itself
// only stops on stop.
func (rb *Rebalancer) Run(stop <-chan struct{}) {
	ticker := time.NewTicker(rb.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			_ = rb.Step(now)
		}
	}
}
