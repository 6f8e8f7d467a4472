// Package load is the open-loop distributed load harness: it drives a
// server or cluster endpoint at a *target* arrival rate — queries keep
// arriving on schedule whether or not earlier ones have finished, the way
// independent mobile users behave — multiplexing millions of lightweight
// simulated users over a bounded pool of pipelined connections and
// reporting SLO-style latency quantiles, achieved-vs-target throughput,
// error counts, and byte accounting (docs/LOAD.md).
//
// Every operation is a cold wire request: cached clients are measured by
// the benchmark's mobile-tour workload with real core.Clients. The
// scenario matrix keeps what only an open loop shows: queueing and SLO
// envelopes at a fixed offered rate, flash crowds, and skewed growth under
// online splits. Every scenario is a deterministic
// generator: the same seed produces the same operation stream, so CI can
// gate on scenario-level regressions the way it gates on microbenchmarks.
package load

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/query"
)

// OpKind is what one scheduled user operation does on the wire.
type OpKind uint8

const (
	// OpRange, OpKNN, OpJoin are cold queries of the respective kind: an
	// empty handover, so the server seeds from its root.
	OpRange OpKind = iota
	OpKNN
	OpJoin
	// OpUpdate is a batched index-update request (moving-object feed).
	OpUpdate
)

// Op is one generated user operation.
type Op struct {
	Kind   OpKind
	User   uint64
	Q      query.Query
	Center geom.Point
	// UpdateN is how many mutations an OpUpdate batches into one request.
	UpdateN int
}

// Shape selects the population dynamics of a scenario: where query centers
// come from as simulated time advances.
type Shape uint8

const (
	// ShapeUniform spreads users over the unit square; a tracked cohort
	// moves under the DIR mobility model so consecutive queries from the
	// same user exhibit the paper's spatial locality.
	ShapeUniform Shape = iota
	// ShapeFlashCrowd ramps a single hotspot from nothing to Spec.HotFrac
	// of all traffic over the first third of the run (a stadium filling up).
	ShapeFlashCrowd
	// ShapeHotspot draws Spec.HotFrac of all traffic into one static
	// hotspot for the whole run.
	ShapeHotspot
)

// SLO is the per-scenario service-level envelope the run is judged against.
// Zero-valued duration fields are unchecked.
type SLO struct {
	// MinAchievedFrac is the floor on achieved/target operation rate.
	MinAchievedFrac float64
	// MaxErrorFrac caps protocol errors as a fraction of wire requests.
	MaxErrorFrac float64
	// MaxShedFrac caps arrivals dropped because the outstanding-request
	// budget was exhausted (the open-loop overload signal).
	MaxShedFrac float64
	// MaxP99 / MaxP999 bound the open-loop latency quantiles (measured
	// from the scheduled arrival, so queueing delay counts).
	MaxP99  time.Duration
	MaxP999 time.Duration
}

// Spec is one scenario of the matrix: an operation mix, an arrival
// process, and population dynamics.
type Spec struct {
	Name        string
	Description string

	// Operation mix; normalized to sum to 1.
	RangeFrac  float64
	KNNFrac    float64
	JoinFrac   float64
	UpdateFrac float64

	// Poisson selects exponential inter-arrival gaps (independent users);
	// false means a fixed-rate schedule.
	Poisson bool

	// Population dynamics.
	Shape     Shape
	HotFrac   float64 // fraction of traffic drawn into the hotspot
	HotRadius float64 // hotspot radius

	// Query geometry.
	WindowSide float64 // range window side (also the kNN/join neighborhood)
	KMax       int     // kNN k is uniform in [1, KMax]
	JoinDist   float64 // join distance threshold

	// UpdateBatch is how many mutations one OpUpdate request carries.
	UpdateBatch int

	// GrowUpdates makes update batches insert fresh objects for the whole
	// run instead of settling into the move steady-state: the dataset keeps
	// growing wherever the updates land. Combined with a static hotspot this
	// concentrates growth into one KD cell — the shard-skew workload, which
	// overloads that cell's shard.
	GrowUpdates bool

	// TileQuant, when positive, snaps hotspot query centers to a TileQuant x
	// TileQuant grid — the map-tile querying pattern of production mobile
	// apps, where clients in one area request canonical tiles rather than
	// per-user windows, so a crowd repeats identical queries.
	TileQuant int
	// AmbientUpdates places updates drawn into the hotspot at the user's
	// home instead: the update feed is the moving-object fleet, and crowd
	// members converge to watch, not to move objects.
	AmbientUpdates bool

	// Faults is the chaos schedule: shard crash-restarts fired at fixed
	// fractions of the run (fault scenarios only; needs Config.Injector).
	Faults []FaultEvent

	// SLO is the envelope CI gates on for this scenario.
	SLO SLO
}

// normalized fills defaults and normalizes the operation mix.
func (s Spec) normalized() Spec {
	sum := s.RangeFrac + s.KNNFrac + s.JoinFrac + s.UpdateFrac
	if sum <= 0 {
		s.RangeFrac, s.KNNFrac, sum = 0.5, 0.5, 1
	}
	s.RangeFrac /= sum
	s.KNNFrac /= sum
	s.JoinFrac /= sum
	s.UpdateFrac /= sum
	if s.WindowSide <= 0 {
		s.WindowSide = 0.02
	}
	if s.KMax <= 0 {
		s.KMax = 8
	}
	if s.JoinDist <= 0 {
		s.JoinDist = 0.004
	}
	if s.HotRadius <= 0 {
		s.HotRadius = 0.04
	}
	if s.HotFrac <= 0 {
		s.HotFrac = 0.8
	}
	if s.UpdateBatch <= 0 {
		s.UpdateBatch = 1
	}
	if s.SLO.MinAchievedFrac <= 0 {
		s.SLO.MinAchievedFrac = 0.85
	}
	if s.SLO.MaxShedFrac <= 0 {
		s.SLO.MaxShedFrac = 0.05
	}
	return s
}

// defaultSLO is the envelope most scenarios share: the schedule must be
// sustained, protocol errors are never acceptable, and tail latency stays
// within CI-hardware slack (the generous bounds absorb shared-runner noise;
// per-PR latency *regressions* are caught by comparing BENCH_<pr>.json).
var defaultSLO = SLO{
	MinAchievedFrac: 0.90,
	MaxErrorFrac:    0,
	MaxShedFrac:     0.02,
	MaxP99:          500 * time.Millisecond,
	MaxP999:         2 * time.Second,
}

// Matrix returns the scenario matrix in presentation order. Names are
// stable: CI job definitions and docs/SCENARIOS.md refer to them.
func Matrix() []Spec {
	specs := []Spec{
		{
			Name:        "baseline",
			Description: "mixed traffic, mobility-model locality, Poisson arrivals: the tracked cold row the others are read against",
			RangeFrac:   0.45, KNNFrac: 0.40, JoinFrac: 0.05, UpdateFrac: 0.10,
			Poisson: true, Shape: ShapeUniform,
			SLO: defaultSLO,
		},
		{
			Name:        "flash-crowd",
			Description: "a hotspot ramps to 85% of traffic in the first third of the run and holds; crowd members query canonical map tiles while the ambient update feed ships batched",
			RangeFrac:   0.50, KNNFrac: 0.45, UpdateFrac: 0.01,
			Poisson: true, Shape: ShapeFlashCrowd, HotFrac: 0.85, HotRadius: 0.03,
			TileQuant: 32, AmbientUpdates: true, UpdateBatch: 4,
			SLO: defaultSLO,
		},
		// shard-skew runs last: it deliberately saturates a shard's writer,
		// so its run ends with seconds of backlogged in-flight operations
		// still draining (plus a dropped grown dataset for the collector) —
		// wreckage no scenario scheduled after it should have to absorb.
		{
			Name:        "shard-skew",
			Description: "growth concentrated in one KD cell: insert-heavy updates pile into a static hotspot until one shard's single-writer apply loop becomes the queue — the overload row: one writer saturates while the rest idle",
			RangeFrac:   0.20, KNNFrac: 0.20, UpdateFrac: 0.60,
			Poisson: true, Shape: ShapeHotspot, HotFrac: 0.90, HotRadius: 0.03,
			WindowSide:  0.008,
			UpdateBatch: 8, GrowUpdates: true,
			// Past the hot writer's knee the cluster backlogs — on a slow
			// enough host its achieved throughput sags below 85%. The
			// latency bounds only fence off collapse: the queue behind one
			// saturated writer, not a crash or a stall.
			SLO: SLO{
				MinAchievedFrac: 0.85,
				MaxErrorFrac:    0,
				MaxShedFrac:     0.02,
				MaxP99:          10 * time.Second,
				MaxP999:         18 * time.Second,
			},
		},
	}
	for i := range specs {
		specs[i] = specs[i].normalized()
	}
	return specs
}

// Lookup finds a scenario by name, searching the regular matrix and the
// chaos matrix.
func Lookup(name string) (Spec, error) {
	for _, s := range append(Matrix(), FaultMatrix()...) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("load: unknown scenario %q", name)
}

// cohortSize bounds the per-generator mobility-model cohort: users beyond
// it share walkers modulo the cohort, keeping memory O(cohort) while every
// user still moves.
const cohortSize = 512

// Gen produces one worker's slice of a scenario's operation stream. It is
// deterministic in (spec, seed, users, duration) and not safe for
// concurrent use: each worker owns one.
type Gen struct {
	spec  Spec
	seed  int64
	users uint64
	dur   float64
	rng   *rand.Rand

	walkers  []mobility.Model
	walkerAt []float64
}

// NewGen builds a generator. users is the simulated population size; dur is
// the run length in seconds (flash crowds scale to it).
func NewGen(spec Spec, seed int64, users int, dur float64) *Gen {
	spec = spec.normalized()
	if users < 1 {
		users = 1
	}
	if dur <= 0 {
		dur = 1
	}
	g := &Gen{
		spec:  spec,
		seed:  seed,
		users: uint64(users),
		dur:   dur,
		rng:   rand.New(rand.NewSource(seed)),
	}
	if spec.Shape == ShapeUniform {
		n := min(cohortSize, users)
		g.walkers = make([]mobility.Model, n)
		g.walkerAt = make([]float64, n)
		mcfg := mobility.Config{Speed: 0.01, PauseMean: 1}
		for i := range g.walkers {
			g.walkers[i] = mobility.NewDirected(mcfg, rand.New(rand.NewSource(seed+int64(i)+1)))
		}
	}
	return g
}

// Next generates the operation scheduled at t seconds into the run.
func (g *Gen) Next(t float64) Op {
	user := uint64(g.rng.Int63n(int64(g.users)))
	center, hot := g.center(t, user)
	if hot && g.spec.TileQuant > 0 {
		center = tileSnap(center, g.spec.TileQuant)
	}
	op := Op{User: user, Center: center}

	x := g.rng.Float64()
	switch {
	case x < g.spec.UpdateFrac:
		op.Kind = OpUpdate
		op.UpdateN = g.spec.UpdateBatch
		if hot && g.spec.AmbientUpdates {
			op.Center = homeOf(g.seed, user)
		}
	case x < g.spec.UpdateFrac+g.spec.JoinFrac:
		op.Kind = OpJoin
		side := g.spec.WindowSide * 2
		op.Q = query.NewJoin(geom.RectFromCenter(op.Center, side, side), g.spec.JoinDist)
	case x < g.spec.UpdateFrac+g.spec.JoinFrac+g.spec.KNNFrac:
		op.Kind = OpKNN
		k := 1 + int(hash64(uint64(g.seed), user, 0x6b6e)%uint64(g.spec.KMax))
		if hot && g.spec.TileQuant > 0 {
			// Tiled crowd queries are canonical per tile, not per user: k
			// derives from the tile so everyone standing on it asks the
			// identical question.
			k = 1 + int(hash64(uint64(g.seed), tileIndex(op.Center, g.spec.TileQuant), 0x6b6e)%uint64(g.spec.KMax))
		}
		op.Q = query.NewKNN(op.Center, k)
	default:
		op.Kind = OpRange
		op.Q = query.NewRange(geom.RectFromCenter(op.Center, g.spec.WindowSide, g.spec.WindowSide))
	}
	return op
}

// tileSnap moves p to the center of its map tile on a q x q grid.
func tileSnap(p geom.Point, q int) geom.Point {
	fq := float64(q)
	snap := func(v float64) float64 {
		i := math.Floor(v * fq)
		if i >= fq {
			i = fq - 1
		}
		if i < 0 {
			i = 0
		}
		return (i + 0.5) / fq
	}
	return geom.Pt(snap(p.X), snap(p.Y))
}

// tileIndex identifies p's tile on a q x q grid.
func tileIndex(p geom.Point, q int) uint64 {
	fq := float64(q)
	ix := int(math.Floor(p.X * fq))
	iy := int(math.Floor(p.Y * fq))
	if ix >= q {
		ix = q - 1
	}
	if iy >= q {
		iy = q - 1
	}
	if ix < 0 {
		ix = 0
	}
	if iy < 0 {
		iy = 0
	}
	return uint64(iy*q + ix)
}

// center places the operation according to the scenario's shape. The second
// return reports hotspot membership: whether this operation was drawn into
// the scenario's crowd (TileQuant and AmbientUpdates apply to those only).
func (g *Gen) center(t float64, user uint64) (geom.Point, bool) {
	s := g.spec
	switch s.Shape {
	case ShapeFlashCrowd, ShapeHotspot:
		frac := s.HotFrac
		if s.Shape == ShapeFlashCrowd {
			// The stadium fills over the first third of the run, then stays
			// full: flash crowds spike fast and persist, they don't build
			// linearly forever.
			frac *= min(3*t/g.dur, 1)
		}
		if g.rng.Float64() < frac {
			return jitter(hotspotCenter(g.seed), s.HotRadius, g.rng), true
		}
		return homeOf(g.seed, user), false
	default: // ShapeUniform
		i := int(user % uint64(len(g.walkers)))
		dt := max(t-g.walkerAt[i], 0)
		g.walkerAt[i] = t
		return g.walkers[i].Advance(dt), false
	}
}

// The simulated population is hash-derived: a user is nothing but an
// integer, and every per-user attribute (home point, kNN k) is a pure
// function of (seed, user, salt). That is what makes millions of users
// free — the harness stores zero bytes per user.

// hash64 is a splitmix64-style mix of the seed, a user id, and a salt.
func hash64(seed, user, salt uint64) uint64 {
	z := seed ^ (user * 0x9e3779b97f4a7c15) ^ (salt * 0xbf58476d1ce4e5b9)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hash01 maps the hash to [0, 1).
func hash01(seed, user, salt uint64) float64 {
	return float64(hash64(seed, user, salt)>>11) / (1 << 53)
}

// homeOf is the user's anchor point in the unit square.
func homeOf(seed int64, user uint64) geom.Point {
	return geom.Pt(hash01(uint64(seed), user, 0x686f6d&0xffff), hash01(uint64(seed), user, 0x686f6d))
}

// hotspotCenter seeds the scenario's hotspot center.
func hotspotCenter(seed int64) geom.Point {
	return geom.Pt(
		0.1+0.8*hash01(uint64(seed), 0, 0x726567),
		0.1+0.8*hash01(uint64(seed), 0, 0x696f6e),
	)
}

// jitter displaces p by up to r in each axis, clamped to the unit square.
func jitter(p geom.Point, r float64, rng *rand.Rand) geom.Point {
	return geom.Pt(
		clamp01(p.X+(rng.Float64()*2-1)*r),
		clamp01(p.Y+(rng.Float64()*2-1)*r),
	)
}

func clamp01(v float64) float64 {
	return min(max(v, 0), 1)
}
