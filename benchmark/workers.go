package main

import (
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// sampleEvery is the stride of the oracle's sample: every 64th query's
// request and answer are kept and checked after the window. maxSamples
// bounds the brute-force work per client.
const (
	sampleEvery = 64
	maxSamples  = 1000
)

// worker is one closed-loop client. The driver calls prepare, then times
// send, then calls finish; only send is inside the measured latency.
type worker interface {
	prepare()
	send() bool // false: the operation failed in transit
	finish()
	kind() uint8 // kind of the operation just prepared
	tally() *tally
}

// tally is what a client accumulated over the window.
type tally struct {
	rejected int // update operations the server refused
	samples  []sample

	// The paper's model quantities, summed over measured queries.
	respTimeSum float64 // seconds on the 384 kbps channel
	queries     int
	resultBytes int64
	savedBytes  int64
	falseMiss   int64
	localOnly   int
	cacheOps    int64
}

func (t *tally) reset() { *t = tally{samples: t.samples[:0]} }

// sumTallies adds the clients' counters up (samples stay per client).
func sumTallies(ts []*tally) tally {
	var sum tally
	for _, t := range ts {
		sum.rejected += t.rejected
		sum.respTimeSum += t.respTimeSum
		sum.queries += t.queries
		sum.resultBytes += t.resultBytes
		sum.savedBytes += t.savedBytes
		sum.falseMiss += t.falseMiss
		sum.localOnly += t.localOnly
		sum.cacheOps += t.cacheOps
	}
	return sum
}

// sample is one query and its answer, kept for the oracle.
type sample struct {
	q     query.Query
	objs  []wire.ObjectRep // cold answers carry rectangles
	ids   []rtree.ObjectID // caching-client answers carry ids only
	pairs [][2]rtree.ObjectID
	own   []geom.Rect // moving-objects: the client's acked rectangles at send time
}

// netWorker drives the three workloads that speak wire.Request directly.
type netWorker struct {
	e      *env
	client int
	t      wire.Transport
	tr     *tracer
	rng    *rand.Rand
	pop    []query.Query // the workload's query population
	order  []int         // this pass's shuffle of pop
	at     int           // next position in order
	owned  *owned        // moving-objects only
	sizes  wire.SizeModel
	ch     wire.Channel

	req   wire.Request
	ops   []wire.UpdateOp
	resp  *wire.Response
	k     uint8
	seq   uint64
	epoch uint64
	tl    tally
}

func newNetWorker(e *env, workload string, seed int64, client int, t wire.Transport, tr *tracer) *netWorker {
	w := &netWorker{
		e: e, client: client, t: t, tr: tr,
		rng:   clientRNG(seed, workload, client, 0),
		pop:   e.population(workload),
		sizes: wire.DefaultSizeModel(),
		ch:    wire.DefaultChannel(),
	}
	return w
}

func (w *netWorker) tally() *tally { return &w.tl }
func (w *netWorker) kind() uint8   { return w.k }

func (w *netWorker) prepare() {
	w.seq++
	if w.tr != nil {
		w.tr.begin(w.client, w.seq)
	}
	w.req = wire.Request{Client: wire.ClientID(w.client)}
	if w.owned != nil {
		w.req.Epoch = w.epoch
		if w.rng.Float64() < updateShare {
			w.k = kindUpdate
			w.ops = w.owned.moves(w.rng, w.ops)
			w.req.Updates = w.ops
			return
		}
	}
	w.k = kindQuery
	if w.at == len(w.order) {
		w.order, w.at = w.rng.Perm(len(w.pop)), 0
	}
	w.req.Q = w.pop[w.order[w.at]]
	w.at++
}

func (w *netWorker) send() bool {
	var err error
	w.resp, err = w.t.RoundTrip(&w.req)
	return err == nil
}

func (w *netWorker) finish() {
	resp := w.resp
	if resp == nil {
		return
	}
	w.epoch = resp.Epoch
	if w.k == kindUpdate {
		for i, ok := range resp.UpdateResults {
			if ok {
				w.owned.rects[w.ops[i].Obj-w.owned.base] = w.ops[i].To
			} else {
				w.tl.rejected++
			}
		}
		w.tl.rejected += len(w.ops) - len(resp.UpdateResults)
		return
	}
	w.tl.queries++
	w.tl.respTimeSum += modelledRespTime(w.sizes, w.ch, &w.req, resp)
	if w.tl.queries%sampleEvery == 0 && len(w.tl.samples) < maxSamples {
		s := sample{q: w.req.Q, objs: resp.Objects, pairs: resp.Pairs}
		if w.owned != nil {
			s.own = append([]geom.Rect(nil), w.owned.rects...)
		}
		w.tl.samples = append(w.tl.samples, s)
	}
}

// modelledRespTime is the paper's response time (Section 4.1) of a cold
// answer on the wireless channel: the size-weighted mean delivery time of
// the result objects, or the whole transfer when there are none. It is what
// core.Client computes for a query it could not help answer.
func modelledRespTime(m wire.SizeModel, ch wire.Channel, req *wire.Request, resp *wire.Response) float64 {
	objDone, total := m.ResponseTimeline(ch, m.RequestBytes(req), resp)
	var weighted, bytes float64
	for i, o := range resp.Objects {
		weighted += float64(o.Size) * objDone[i]
		bytes += float64(o.Size)
	}
	if bytes == 0 {
		return total
	}
	return weighted / bytes
}

// insertOwned ships a client's objects to the server in batches, as part of
// set-up.
func (w *netWorker) insertOwned(seed int64, perClient int) error {
	rects := initialRects(w.e, clientRNG(seed, wlMoving, w.client, 3), perClient)
	w.owned = &owned{base: ownedBase(w.e, w.client, perClient), rects: rects}
	const batch = 250
	for lo := 0; lo < len(rects); lo += batch {
		hi := min(lo+batch, len(rects))
		ops := make([]wire.UpdateOp, 0, hi-lo)
		for j := lo; j < hi; j++ {
			ops = append(ops, wire.UpdateOp{Kind: wire.UpdateInsert, Obj: w.owned.base + rtree.ObjectID(j), To: rects[j], Size: ownedBytes})
		}
		resp, err := w.t.RoundTrip(&wire.Request{Client: wire.ClientID(w.client), Epoch: w.epoch, Updates: ops})
		if err != nil {
			return fmt.Errorf("client %d insert: %w", w.client, err)
		}
		for _, ok := range resp.UpdateResults {
			if !ok {
				return fmt.Errorf("client %d: server refused an insert", w.client)
			}
		}
		w.epoch = resp.Epoch
	}
	return nil
}

// tourWorker is the paper's client: a repro.Client with a 1 % cache walking
// a random-waypoint tour.
type tourWorker struct {
	client int
	cl     *repro.Client
	tr     *tracer
	tour   *tour

	q   query.Query
	rep repro.Report
	seq uint64
	tl  tally
}

func newTourWorker(e *env, seed int64, client int, t wire.Transport, tr *tracer) (*tourWorker, error) {
	cl, err := repro.NewClient(t, repro.ClientConfig{
		ID:         uint32(client),
		CacheBytes: int(e.totalBytes / 100), // the paper's default |C| = 1 %
		Policy:     repro.GRD3,
	})
	if err != nil {
		return nil, err
	}
	return &tourWorker{client: client, cl: cl, tr: tr, tour: newTour(seed, client)}, nil
}

func (w *tourWorker) tally() *tally { return &w.tl }
func (w *tourWorker) kind() uint8   { return kindQuery }

func (w *tourWorker) prepare() {
	w.seq++
	if w.tr != nil {
		w.tr.begin(w.client, w.seq)
	}
	var pos geom.Point
	pos, w.q = w.tour.next()
	w.cl.SetPosition(pos)
}

func (w *tourWorker) send() bool {
	var err error
	if w.tr == nil {
		w.rep, err = w.cl.Query(w.q)
		return err == nil
	}
	start := w.tr.now()
	w.rep, err = w.cl.Query(w.q)
	w.tr.add(span{req: w.tr.cur[w.client].Load(), layer: layerClient, start: start, end: w.tr.now()})
	return err == nil
}

func (w *tourWorker) finish() {
	rep := &w.rep
	w.tl.queries++
	w.tl.respTimeSum += rep.RespTime
	w.tl.resultBytes += int64(rep.ResultBytes)
	w.tl.savedBytes += int64(rep.SavedBytes)
	w.tl.falseMiss += int64(rep.FalseMissBytes)
	w.tl.cacheOps += int64(rep.CacheOps)
	if rep.LocalOnly {
		w.tl.localOnly++
	}
	if w.tl.queries%sampleEvery == 0 && len(w.tl.samples) < maxSamples {
		w.tl.samples = append(w.tl.samples, sample{q: w.q, ids: rep.Results, pairs: rep.Pairs})
	}
}
