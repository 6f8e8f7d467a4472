package load

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// Config parameterizes one open-loop run.
type Config struct {
	// Spec is the scenario to run.
	Spec Spec
	// TargetQPS is the aggregate arrival rate across all workers.
	TargetQPS float64
	// Duration is the run length.
	Duration time.Duration
	// Users is the simulated population size (hash-derived; memory-free).
	Users int
	// Workers is the number of pacing loops / connections; default 4, at
	// most maxWorkers. Each worker is one wire client (ClientID worker+1)
	// so server-side per-client state stays bounded no matter how large
	// Users is.
	Workers int
	// Seed makes the operation streams deterministic.
	Seed int64
	// Timeout is the latency above which a completed operation is also
	// counted as a timeout; default 2s.
	Timeout time.Duration

	// NewTransport connects worker w to the system under test. Required.
	// Transports implementing io.Closer are closed at the end of the run
	// and redialed after wire errors (a poisoned pipelined connection
	// fails every outstanding request; the harness counts those and moves
	// on, it never aborts).
	NewTransport func(worker int) (wire.Transport, error)
	// Release, when set, recycles responses back to the server's pool
	// (in-process transports only).
	Release func(*wire.Response)
	// OnEvent observes per-operation errors (logging hook). May be nil.
	OnEvent func(worker int, err error)

	// Injector is the chaos surface Spec.Faults fires against (cluster
	// backends: *cluster.InProcess satisfies it). Required when the spec
	// schedules faults; fault-free specs ignore it.
	Injector Injector
	// Cluster, when set, is sampled before and after the run to fill the
	// cluster-only Result fields (ShardErrors, Retries, Failovers, Redials,
	// Splits, Merges, Handover) with this run's deltas. Wire it to the
	// metrics.ClusterStats every router behind NewTransport counts into.
	Cluster func() metrics.ClusterSnapshot
	// EdgeStats, when set, is sampled before and after the run to fill
	// Result.EdgeHits/EdgeMisses/EdgeForwards with this run's deltas (wire
	// it to the edge tier's metrics.EdgeStats snapshot).
	EdgeStats func() metrics.EdgeSnapshot
}

// maxOutstanding bounds in-flight operations per worker; arrivals that find
// the budget exhausted are shed (counted, never blocked on — blocking would
// turn the harness closed-loop).
const maxOutstanding = 1024

func (c Config) withDefaults() (Config, error) {
	if c.NewTransport == nil {
		return c, fmt.Errorf("load: Config.NewTransport is required")
	}
	c.Spec = c.Spec.normalized()
	if len(c.Spec.Faults) > 0 && c.Injector == nil {
		return c, fmt.Errorf("load: scenario %q schedules faults but Config.Injector is nil (chaos needs an in-process cluster backend)", c.Spec.Name)
	}
	if c.TargetQPS <= 0 {
		c.TargetQPS = 1000
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Users < 1 {
		c.Users = 1
	}
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.Workers > maxWorkers {
		return c, fmt.Errorf("load: %d workers would share insert ids (at most %d)", c.Workers, maxWorkers)
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	return c, nil
}

// counters is the run-wide atomic counter set workers write into.
type counters struct {
	scheduled atomic.Int64
	wireSent  atomic.Int64
	wireOK    atomic.Int64
	errors    atomic.Int64
	timeouts  atomic.Int64
	shed      atomic.Int64
	updates   atomic.Int64
	updateRej atomic.Int64

	bytesUp   atomic.Int64
	bytesDown atomic.Int64

	lat metrics.Histogram
}

// Run executes the scenario open-loop: Workers pacing loops each issue
// operations at their share of TargetQPS on a fixed schedule, regardless of
// how long earlier operations take. Latency is measured from the scheduled
// arrival time, not the send time, so queueing delay under overload is
// visible instead of silently omitted (the coordinated-omission trap of
// closed-loop drivers).
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	var (
		cnt   counters
		wg    sync.WaitGroup
		sizer = wire.DefaultSizeModel()
		dur   = cfg.Duration.Seconds()

		edgeBase    metrics.EdgeSnapshot
		clusterBase metrics.ClusterSnapshot
	)
	if cfg.EdgeStats != nil {
		edgeBase = cfg.EdgeStats()
	}
	if cfg.Cluster != nil {
		clusterBase = cfg.Cluster()
	}
	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		tr, err := cfg.NewTransport(i)
		if err != nil {
			// A worker that cannot connect at all still runs: its wire
			// operations fail and are counted, and redial keeps trying.
			// This is the harness contract for partially-down clusters.
			if cfg.OnEvent != nil {
				cfg.OnEvent(i, err)
			}
		}
		workers[i] = &worker{
			cfg:   &cfg,
			cnt:   &cnt,
			sizer: sizer,
			id:    i,
			gen:   NewGen(cfg.Spec, cfg.Seed+int64(i)*7919, cfg.Users, dur),
			sched: newArrivals(cfg.TargetQPS/float64(cfg.Workers), cfg.Spec.Poisson,
				rand.New(rand.NewSource(cfg.Seed^int64(i)<<20))),
			sem:  make(chan struct{}, maxOutstanding),
			urng: rand.New(rand.NewSource(cfg.Seed ^ (int64(i)+1)*104729)),
		}
		workers[i].tr.Store(&trGen{tr: tr})
	}

	start := time.Now()
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(start, dur)
		}(w)
	}
	var (
		faultStop chan struct{}
		faultDone chan struct{}
	)
	if len(cfg.Spec.Faults) > 0 {
		faultStop = make(chan struct{})
		faultDone = make(chan struct{})
		go func() {
			defer close(faultDone)
			injectFaults(cfg.Spec.Faults, cfg.Injector, cfg.Duration, start,
				faultStop, func(err error) {
					cnt.errors.Add(1)
					if cfg.OnEvent != nil {
						cfg.OnEvent(-1, err)
					}
				})
		}()
	}
	wg.Wait()
	if faultStop != nil {
		close(faultStop)
		<-faultDone
	}
	elapsed := time.Since(start)
	for _, w := range workers {
		w.close()
	}

	res := &Result{
		Scenario:  cfg.Spec.Name,
		TargetQPS: cfg.TargetQPS,
		Duration:  elapsed,
		Users:     cfg.Users,
		Workers:   cfg.Workers,

		Scheduled:     cnt.scheduled.Load(),
		WireSent:      cnt.wireSent.Load(),
		WireOK:        cnt.wireOK.Load(),
		Errors:        cnt.errors.Load(),
		Timeouts:      cnt.timeouts.Load(),
		Shed:          cnt.shed.Load(),
		Updates:       cnt.updates.Load(),
		UpdateRejects: cnt.updateRej.Load(),

		BytesUp:   cnt.bytesUp.Load(),
		BytesDown: cnt.bytesDown.Load(),

		Mean: cnt.lat.Mean(),
		P50:  cnt.lat.Quantile(0.50),
		P99:  cnt.lat.Quantile(0.99),
		P999: cnt.lat.Quantile(0.999),

		SLO: cfg.Spec.SLO,
	}
	if cfg.Cluster != nil {
		res.FillClusterDeltas(clusterBase, cfg.Cluster())
	}
	if cfg.EdgeStats != nil {
		now := cfg.EdgeStats()
		res.EdgeTier = true
		res.EdgeHits = now.Hits - edgeBase.Hits
		res.EdgeMisses = now.Misses - edgeBase.Misses
		res.EdgeForwards = now.Forwards - edgeBase.Forwards
	}
	// Achieved rate is completions over the offered window, not over
	// elapsed-including-drain: every operation was *scheduled* inside
	// cfg.Duration, and how late the stragglers ran is exactly what the
	// scheduled-time latency quantiles report. Dividing by drain time
	// would double-count lateness as lost throughput.
	res.AchievedQPS = float64(res.WireOK) / dur
	res.Violations = res.CheckSLO()
	return res, nil
}

// trGen is one generation of a worker's transport: its pointer is the
// generation's identity, so concurrent failures of one poisoned connection
// trigger a single redial.
type trGen struct {
	tr wire.Transport
}

// worker owns one pacing loop and one wire identity shared by its slice of
// the user population.
type worker struct {
	cfg   *Config
	cnt   *counters
	sizer wire.SizeModel
	id    int
	gen   *Gen
	sched *arrivals
	sem   chan struct{}

	tr      atomic.Pointer[trGen]
	dialing atomic.Bool

	epoch atomic.Uint64

	mu    sync.Mutex // guards urng and the update bookkeeping below
	urng  *rand.Rand // update-placement jitter (gen.rng belongs to the pacing loop)
	owned []ownedObj
	inext uint32

	issued sync.WaitGroup
}

// ownedObj is a moving object this worker inserted and now owns: the rect
// is the exact wire-precision rectangle the server stores, which the next
// move must echo (the R-tree delete contract, docs/UPDATES.md).
type ownedObj struct {
	id   rtree.ObjectID
	rect geom.Rect
}

// ownedTarget is the steady-state moving-object pool per worker: below it
// update batches insert, at it they move.
const ownedTarget = 256

// Objects a worker inserts carry bit 31, the worker in the next
// idWorkerBits bits and the worker's insert serial below, so they collide
// with neither dataset ids nor another worker's inserts. maxWorkers is the
// most workers that layout keeps apart.
const (
	idWorkerBits = 7
	idSerialBits = 31 - idWorkerBits
	maxWorkers   = 1 << idWorkerBits
)

// run is the open-loop pacing loop: pop the next scheduled arrival, sleep
// until it is due (never sleeping past the next arrival keeps the loop
// self-correcting — after an oversleep it issues every overdue arrival
// back-to-back and catches up), generate the operation, and dispatch it
// without waiting for completion.
func (w *worker) run(start time.Time, dur float64) {
	w.bootstrap()
	for {
		at := w.sched.Next()
		if at >= dur {
			break
		}
		if d := at - time.Since(start).Seconds(); d > 0 {
			time.Sleep(time.Duration(d * float64(time.Second)))
		}
		op := w.gen.Next(at)
		w.cnt.scheduled.Add(1)
		w.dispatch(op, start.Add(time.Duration(at*float64(time.Second))))
	}
	// Drain, but never hang on a dead backend: operations still in flight
	// past the timeout stay in WireSent without a completion counter —
	// visible as WireSent - WireOK - Errors.
	done := make(chan struct{})
	go func() { w.issued.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(w.cfg.Timeout + 500*time.Millisecond):
	}
}

// bootstrap performs the catalog round-trip every real client starts with
// (root descriptor + current epoch). Uncounted; failure is fine — the
// first query then behaves like a cold client.
func (w *worker) bootstrap() {
	g := w.tr.Load()
	if g.tr == nil {
		w.redial(g)
		return
	}
	req := &wire.Request{Client: wire.ClientID(w.id + 1), Catalog: true}
	resp, err := g.tr.RoundTrip(req)
	if err != nil {
		return
	}
	w.epochMax(resp.Epoch)
	w.release(resp)
}

// dispatch runs the operation in its own goroutine under the outstanding
// budget; arrivals that find the budget full are shed and counted.
func (w *worker) dispatch(op Op, scheduled time.Time) {
	select {
	case w.sem <- struct{}{}:
	default:
		w.cnt.shed.Add(1)
		return
	}
	w.issued.Add(1)
	go func() {
		defer func() { <-w.sem; w.issued.Done() }()
		w.roundTrip(op, scheduled)
	}()
}

// roundTrip builds, sends, and accounts one wire operation.
func (w *worker) roundTrip(op Op, scheduled time.Time) {
	req := &wire.Request{
		Client: wire.ClientID(w.id + 1),
		Epoch:  w.epoch.Load(),
	}
	if op.Kind == OpUpdate {
		w.mu.Lock()
		req.Updates = w.buildUpdates(op)
		w.mu.Unlock()
		w.cnt.updates.Add(1)
	} else {
		req.Q = op.Q
	}

	w.cnt.wireSent.Add(1)
	w.cnt.bytesUp.Add(int64(w.sizer.RequestBytes(req)))

	g := w.tr.Load()
	if g.tr == nil {
		w.fail(g, fmt.Errorf("load: worker %d has no connection", w.id))
		return
	}
	resp, err := g.tr.RoundTrip(req)
	if err != nil {
		w.fail(g, err)
		return
	}

	lat := time.Since(scheduled)
	w.cnt.lat.Observe(lat)
	if lat > w.cfg.Timeout {
		w.cnt.timeouts.Add(1)
	}
	w.cnt.wireOK.Add(1)
	w.cnt.bytesDown.Add(int64(w.sizer.ResponseBytes(resp)))
	w.epochMax(resp.Epoch)

	if op.Kind == OpUpdate {
		w.mu.Lock()
		w.settleUpdates(req.Updates, resp.UpdateResults)
		w.mu.Unlock()
	}
	w.release(resp)
}

// fail counts a wire error and kicks off a redial when the worker holds a
// real (closable) connection — a poisoned pipelined conn fails everything
// outstanding, so many fail() calls race here; the generation check makes
// them one redial.
func (w *worker) fail(g *trGen, err error) {
	w.cnt.errors.Add(1)
	if w.cfg.OnEvent != nil {
		w.cfg.OnEvent(w.id, err)
	}
	if _, closable := g.tr.(io.Closer); g.tr != nil && !closable {
		return // in-process handler errors are application-level; keep it
	}
	if w.tr.Load() != g || !w.dialing.CompareAndSwap(false, true) {
		return
	}
	go w.redialLoop(g)
}

// redialLoop replaces a dead transport, backing off between attempts until
// the run ends or a dial succeeds.
func (w *worker) redialLoop(g *trGen) {
	defer w.dialing.Store(false)
	backoff := 50 * time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		if w.redial(g) {
			return
		}
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

func (w *worker) redial(g *trGen) bool {
	tr, err := w.cfg.NewTransport(w.id)
	if err != nil {
		if w.cfg.OnEvent != nil {
			w.cfg.OnEvent(w.id, err)
		}
		return false
	}
	if old := g.tr; old != nil {
		if c, ok := old.(io.Closer); ok {
			c.Close()
		}
	}
	w.tr.Store(&trGen{tr: tr})
	return true
}

func (w *worker) close() {
	g := w.tr.Load()
	if c, ok := g.tr.(io.Closer); ok {
		c.Close()
	}
}

func (w *worker) release(resp *wire.Response) {
	if w.cfg.Release != nil {
		w.cfg.Release(resp)
	}
}

// epochMax advances the worker's last-seen epoch monotonically (pipelined
// responses complete out of order).
func (w *worker) epochMax(e uint64) {
	for {
		cur := w.epoch.Load()
		if e <= cur || w.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// buildUpdates assembles one batched update request: inserts while the
// worker's moving-object pool is below target (for the whole run under
// GrowUpdates), moves of pooled objects after. Objects are removed from
// the pool while their update is in flight (single outstanding mutation
// per object) and returned by settleUpdates, so pipelined batches never
// race on one object's rectangle. Caller holds w.mu.
func (w *worker) buildUpdates(op Op) []wire.UpdateOp {
	n := max(op.UpdateN, 1)
	ops := make([]wire.UpdateOp, 0, n)
	for i := 0; i < n; i++ {
		to := quantRect(geom.RectFromCenter(
			jitter(op.Center, 0.02, w.urng), 0.002, 0.002))
		if w.cfg.Spec.GrowUpdates || len(w.owned) < ownedTarget {
			id := rtree.ObjectID(1<<31 | uint32(w.id)<<idSerialBits | w.inext&(1<<idSerialBits-1))
			w.inext++
			ops = append(ops, wire.UpdateOp{
				Kind: wire.UpdateInsert, Obj: id, To: to, Size: 128,
			})
			continue
		}
		// Pop a pooled object and move it toward the operation center.
		last := len(w.owned) - 1
		o := w.owned[last]
		w.owned = w.owned[:last]
		ops = append(ops, wire.UpdateOp{
			Kind: wire.UpdateMove, Obj: o.id, From: o.rect, To: to,
		})
	}
	return ops
}

// settleUpdates returns acknowledged objects to the pool at their new
// rectangles. Rejected operations (rare: an exactly coincident concurrent
// mutation) drop the object and are counted — never fatal. Caller holds
// w.mu.
func (w *worker) settleUpdates(ops []wire.UpdateOp, results []bool) {
	for i, o := range ops {
		if i < len(results) && results[i] {
			w.owned = append(w.owned, ownedObj{id: o.Obj, rect: o.To})
		} else {
			w.cnt.updateRej.Add(1)
		}
	}
}

// quantRect rounds a rectangle to float32 wire precision so the rectangle
// a worker echoes in a later move matches the stored entry bit-for-bit
// whether the transport is in-process (float64 preserved) or binary TCP
// (float32 on the wire).
func quantRect(r geom.Rect) geom.Rect {
	return geom.Rect{
		MinX: float64(float32(r.MinX)), MinY: float64(float32(r.MinY)),
		MaxX: float64(float32(r.MaxX)), MaxY: float64(float32(r.MaxY)),
	}
}
