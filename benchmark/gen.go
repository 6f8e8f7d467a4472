package main

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// Workload parameters. They are the issue's; changing one changes what every
// stored number means.
const (
	smallRangeSide = 0.01
	smallKNNMaxK   = 16

	bigRangeSide = 0.1
	bigKNNK      = 256
	bigJoinSide  = 0.01
	bigJoinDist  = 2e-4

	updateShare    = 0.1 // of moving-objects requests; about three quarters of the client's time
	movesPerUpdate = 8
	moveSigma      = 0.01
	ownedSide      = 5e-4 // side of the squares moving-objects clients insert
	ownedBytes     = 1024 // their payload size

	tourRangeSide = 0.002
	tourKNNMaxK   = 5
	tourJoinSide  = 0.004
	tourJoinDist  = 5e-5
	tourSpeed     = 1e-4
	tourThinkMean = 50
	// A fixed count, because the hit rate depends on how long the tour is:
	// queries per client per second of --seconds.
	tourQueriesPerSecond = 2000
)

// clientRNG derives a client's generator stream from the run seed. Streams of
// different workloads, clients and purposes never share a state.
func clientRNG(seed int64, workload string, client, purpose int) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(client)*0xbf58476d1ce4e5b9 + uint64(purpose)*0x94d049bb133111eb
	for _, c := range []byte(workload) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// randomCentre is the centre of a uniformly chosen dataset object: requests
// follow the data's density, so no window is empty.
func randomCentre(e *env, rng *rand.Rand) geom.Point {
	return quantPoint(e.objects[rng.Intn(len(e.objects))].MBR.Center())
}

func rangeAt(c geom.Point, side float64) query.Query {
	return query.NewRange(quantRect(geom.RectFromCenter(c, side, side)))
}

func joinAt(c geom.Point, side, dist float64) query.Query {
	return query.NewJoin(quantRect(geom.RectFromCenter(c, side, side)), q32(dist))
}

// populationSize is how many distinct queries a workload asks. The places
// asked about are part of the workload's definition, like the dataset: drawn
// once, with the dataset's seed. --seed decides the order each client visits
// them in (a fresh shuffle per pass through the set), so two seeds ask the
// same questions and their count metrics differ only by where the window
// cut the last pass. Sizes let a window make several passes.
var populationSize = map[string]int{wlSmallReads: 4096, wlBigScans: 2048, wlMoving: 512}

// population returns the workload's queries, building them on first use.
func (e *env) population(workload string) []query.Query {
	if pop, ok := e.pops[workload]; ok {
		return pop
	}
	rng := clientRNG(datasetSeed, workload, 0, 4)
	draw := smallRead
	if workload == wlBigScans {
		draw = bigScan
	}
	pop := make([]query.Query, populationSize[workload])
	for i := range pop {
		pop[i] = draw(e, rng)
	}
	e.pops[workload] = pop
	return pop
}

// smallRead is 70 % range side 0.01, 30 % kNN k in [1,16].
func smallRead(e *env, rng *rand.Rand) query.Query {
	c := randomCentre(e, rng)
	if rng.Float64() < 0.7 {
		return rangeAt(c, smallRangeSide)
	}
	return query.NewKNN(c, 1+rng.Intn(smallKNNMaxK))
}

// bigScan is 60 % range side 0.1, 20 % kNN k=256, 20 % join.
func bigScan(e *env, rng *rand.Rand) query.Query {
	c := randomCentre(e, rng)
	switch u := rng.Float64(); {
	case u < 0.6:
		return rangeAt(c, bigRangeSide)
	case u < 0.8:
		return query.NewKNN(c, bigKNNK)
	}
	return joinAt(c, bigJoinSide, bigJoinDist)
}

// tour is one mobile client's random-waypoint walk and the queries it asks
// about where it stands.
type tour struct {
	mob mobility.Model
	rng *rand.Rand
}

// newTour starts a client's walk. The route — the waypoints and the speed of
// each leg — is given, like the dataset; --seed decides when along it the
// client stops to ask, and what.
func newTour(seed int64, client int) *tour {
	return &tour{
		mob: mobility.NewRandomWaypoint(mobility.Config{Speed: tourSpeed, PauseMean: tourThinkMean},
			clientRNG(datasetSeed, wlTour, client, 1)),
		rng: clientRNG(seed, wlTour, client, 2),
	}
}

// next advances the walk by an exponential think time and returns the
// position and the query asked there: a third each of range, kNN and join.
func (t *tour) next() (geom.Point, query.Query) {
	pos := quantPoint(t.mob.Advance(t.rng.ExpFloat64() * tourThinkMean))
	switch t.rng.Intn(3) {
	case 0:
		return pos, rangeAt(pos, tourRangeSide)
	case 1:
		return pos, query.NewKNN(pos, 1+t.rng.Intn(tourKNNMaxK))
	}
	return pos, joinAt(pos, tourJoinSide, tourJoinDist)
}

// owned is the set of objects one moving-objects client inserted and keeps
// moving. rects holds the last acknowledged rectangle of each.
type owned struct {
	base  rtree.ObjectID // id of rects[0]
	rects []geom.Rect
}

func ownedBase(e *env, client, perClient int) rtree.ObjectID {
	return rtree.ObjectID(len(e.objects) + 1 + (client-1)*perClient)
}

// initialRects places a client's objects on dataset object centres.
func initialRects(e *env, rng *rand.Rand, n int) []geom.Rect {
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = quantRect(geom.RectFromCenter(randomCentre(e, rng), ownedSide, ownedSide))
	}
	return rects
}

// moves fills ops with movesPerUpdate moves of consecutive owned objects,
// each displaced by a Gaussian step and kept inside the unit square.
func (o *owned) moves(rng *rand.Rand, ops []wire.UpdateOp) []wire.UpdateOp {
	ops = ops[:0]
	first := rng.Intn(len(o.rects))
	for i := 0; i < movesPerUpdate; i++ {
		j := (first + i) % len(o.rects)
		from := o.rects[j]
		c := from.Center()
		c.X = min(max(c.X+rng.NormFloat64()*moveSigma, ownedSide), 1-ownedSide)
		c.Y = min(max(c.Y+rng.NormFloat64()*moveSigma, ownedSide), 1-ownedSide)
		ops = append(ops, wire.UpdateOp{
			Kind: wire.UpdateMove, Obj: o.base + rtree.ObjectID(j),
			From: from, To: quantRect(geom.RectFromCenter(c, ownedSide, ownedSide)),
		})
	}
	return ops
}
