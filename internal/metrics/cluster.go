package metrics

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// ClusterStats are the live counters of a cluster router (internal/cluster):
// how client requests fan out into shard sub-queries, how often the kNN
// re-issue protocol fires, how much cross-shard join work the merge layer
// performs, and — since the cluster went elastic — how the shard topology
// itself moves (splits, merges, handover time) and how load sits on each
// shard slot (object-count gauges). All fields are atomic; one
// ClusterStats is shared by every request the router serves.
//
// The per-shard blocks live behind an atomic pointer so the router can grow
// the slot count during an online split without synchronizing readers:
// Shard(i) is always safe, and a block, once created, is never replaced —
// counters survive the slot going dead and coming back.
type ClusterStats struct {
	// Requests counts client requests routed (queries, catalogs, updates).
	Requests atomic.Int64
	// SubQueries counts shard sub-requests issued (all kinds).
	SubQueries atomic.Int64
	// SingleShard counts client queries answered by exactly one shard —
	// the fan-out-free fast path.
	SingleShard atomic.Int64
	// Reissues counts kNN sub-queries re-issued because a shard's initial
	// probe under-fetched (its local bound still beat the global k-th best).
	Reissues atomic.Int64
	// CrossPairTasks counts cross-shard join candidate scans (one per shard
	// pair whose boundary band intersected the join window).
	CrossPairTasks atomic.Int64
	// Flushes counts responses that told a client to drop its cache (epoch
	// fell off the per-client table, or a shard demanded it).
	Flushes atomic.Int64

	// Splits and Merges count completed elastic topology changes
	// (docs/ELASTIC.md); HandoverNanos accumulates the time requests were
	// fenced out during their cutovers, so mean handover pause is
	// HandoverNanos / (Splits + Merges).
	Splits        atomic.Int64
	Merges        atomic.Int64
	HandoverNanos atomic.Int64

	// perShard holds one counter block per shard slot, swapped atomically
	// when the topology grows.
	perShard atomic.Pointer[[]*ShardCounters]
}

// ShardCounters are the per-shard slice of the router's counters, plus the
// shard's object-count gauge.
type ShardCounters struct {
	// SubQueries counts sub-requests routed to this shard.
	SubQueries atomic.Int64
	// Errors counts sub-requests this shard failed.
	Errors atomic.Int64
	// Retries counts sub-requests re-sent while this shard was down.
	Retries atomic.Int64

	// Objects gauges how many objects the shard currently owns: seeded at
	// build/spawn, maintained from acked inserts and deletes, and adjusted
	// wholesale when a split or merge moves a region.
	Objects atomic.Int64
	// Dead marks a retired slot (its region was merged away). The slot's
	// counters remain readable; the slot is never reused.
	Dead atomic.Bool
}

// NewClusterStats returns counters for a router over n shards.
func NewClusterStats(n int) *ClusterStats {
	s := &ClusterStats{}
	s.Grow(n)
	return s
}

// Shards returns the current shard slot count.
func (s *ClusterStats) Shards() int {
	if p := s.perShard.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// Shard returns slot i's counter block, growing the table if the slot is
// new. Blocks are never replaced, so a retained pointer stays valid across
// topology changes.
func (s *ClusterStats) Shard(i int) *ShardCounters {
	p := s.perShard.Load()
	if p == nil || i >= len(*p) {
		s.Grow(i + 1)
		p = s.perShard.Load()
	}
	return (*p)[i]
}

// Grow extends the per-shard table to at least n slots. Concurrent growers
// race benignly: existing blocks are carried over by pointer, so whichever
// swap wins preserves every block already handed out.
func (s *ClusterStats) Grow(n int) {
	for {
		old := s.perShard.Load()
		if old != nil && len(*old) >= n {
			return
		}
		next := make([]*ShardCounters, n)
		if old != nil {
			copy(next, *old)
		}
		for i := range next {
			if next[i] == nil {
				next[i] = &ShardCounters{}
			}
		}
		if s.perShard.CompareAndSwap(old, &next) {
			return
		}
	}
}

// ClusterSnapshot is a point-in-time copy of ClusterStats for printing.
type ClusterSnapshot struct {
	Requests       int64
	SubQueries     int64
	SingleShard    int64
	Reissues       int64
	CrossPairTasks int64
	Flushes        int64
	Splits         int64
	Merges         int64
	HandoverNanos  int64
	PerShard       []ShardSnapshot
}

// ShardSnapshot is one shard's counter copy.
type ShardSnapshot struct {
	SubQueries int64
	Errors     int64
	Retries    int64
	Objects    int64
	Dead       bool
	// WALLatched marks a shard whose write-ahead log failed: it keeps
	// serving and acknowledging updates, but no longer logs them, so a
	// restart loses everything it acknowledged since. Router.Snapshot
	// reads it from the shard's server; ClusterStats cannot see it.
	WALLatched bool
}

// Snapshot copies the live counters.
func (s *ClusterStats) Snapshot() ClusterSnapshot {
	snap := ClusterSnapshot{
		Requests:       s.Requests.Load(),
		SubQueries:     s.SubQueries.Load(),
		SingleShard:    s.SingleShard.Load(),
		Reissues:       s.Reissues.Load(),
		CrossPairTasks: s.CrossPairTasks.Load(),
		Flushes:        s.Flushes.Load(),
		Splits:         s.Splits.Load(),
		Merges:         s.Merges.Load(),
		HandoverNanos:  s.HandoverNanos.Load(),
	}
	if p := s.perShard.Load(); p != nil {
		snap.PerShard = make([]ShardSnapshot, len(*p))
		for i, sh := range *p {
			snap.PerShard[i] = ShardSnapshot{
				SubQueries: sh.SubQueries.Load(),
				Errors:     sh.Errors.Load(),
				Retries:    sh.Retries.Load(),
				Objects:    sh.Objects.Load(),
				Dead:       sh.Dead.Load(),
			}
		}
	}
	return snap
}

// FanOut returns the mean shard sub-queries per routed request.
func (s ClusterSnapshot) FanOut() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.SubQueries) / float64(s.Requests)
}

// String renders a one-line summary plus a per-shard breakdown.
func (s ClusterSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d reqs, %d subqueries (%.2f fan-out), %d single-shard, %d reissues, %d cross-pair scans, %d flushes",
		s.Requests, s.SubQueries, s.FanOut(), s.SingleShard, s.Reissues, s.CrossPairTasks, s.Flushes)
	if s.Splits > 0 || s.Merges > 0 {
		fmt.Fprintf(&b, ", %d splits/%d merges (%.1fms handover)",
			s.Splits, s.Merges, float64(s.HandoverNanos)/1e6)
	}
	b.WriteString("; shards:")
	for i, sh := range s.PerShard {
		if sh.Dead {
			fmt.Fprintf(&b, " %d=dead", i)
			continue
		}
		fmt.Fprintf(&b, " %d=%d", i, sh.SubQueries)
		if sh.Objects > 0 {
			fmt.Fprintf(&b, "{%dobj}", sh.Objects)
		}
		if sh.Errors > 0 {
			fmt.Fprintf(&b, "(%derr)", sh.Errors)
		}
		if sh.WALLatched {
			b.WriteString("(wal-latched)")
		}
		if sh.Retries > 0 {
			fmt.Fprintf(&b, "[%dretry]", sh.Retries)
		}
	}
	return b.String()
}

// Errors sums failed sub-requests across shards.
func (s ClusterSnapshot) Errors() int64 {
	return s.sum(func(sh ShardSnapshot) int64 { return sh.Errors })
}

// Retries sums sub-request retries across shards.
func (s ClusterSnapshot) Retries() int64 {
	return s.sum(func(sh ShardSnapshot) int64 { return sh.Retries })
}

// LiveShards counts slots that are not dead.
func (s ClusterSnapshot) LiveShards() int {
	var n int64
	for _, sh := range s.PerShard {
		if !sh.Dead {
			n++
		}
	}
	return int(n)
}

func (s ClusterSnapshot) sum(f func(ShardSnapshot) int64) int64 {
	var t int64
	for _, sh := range s.PerShard {
		t += f(sh)
	}
	return t
}
