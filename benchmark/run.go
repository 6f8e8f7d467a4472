package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// sizing is how big a run is. The full size is the benchmark; quick is for
// the smoke tests and for trying a change out.
type sizing struct {
	objects     int
	owned       int     // objects each moving-objects client inserts and moves
	warmupScale float64 // share of the full warm-up counts
	setups      int     // set-ups per untraced pass; setup_s is their median
	spans       int     // tracer capacity
	equiv       int     // requests the traced-versus-production replay compares
}

var (
	fullSize  = sizing{objects: 100_000, owned: 2000, warmupScale: 1, setups: 3, spans: 3_000_000, equiv: 1000}
	quickSize = sizing{objects: 10_000, owned: 200, warmupScale: 0.1, setups: 1, spans: 200_000, equiv: 100}
)

// warmupOps is the fixed warm-up each client runs, and discards, as the last
// step of set-up: about a second of work on the reference box, enough to
// fill pools, grow heaps and, on mobile-tour, bring the cache to its working
// hit rate.
var warmupOps = map[string]int{
	wlSmallReads: 4000,
	wlBigScans:   400,
	wlMoving:     1000,
	wlTour:       4000,
}

// pass is one set-up plus one measured window.
type pass struct {
	workload string
	seed     int64
	seconds  float64
	size     sizing
	scratch  string
	tr       *tracer // nil: the production stack, untraced
	// codec is each client's sample of request/response pairs, kept by the
	// traced pass for the codec replay.
	codec [maxClients][]codecSample
}

// opRec is one completed operation.
type opRec struct {
	end  int64 // nanoseconds since the window's clock base
	dur  int64
	kind uint8
	ok   bool
}

// live is a stack with its clients connected and warmed up.
type live struct {
	st      *stack
	conns   []wire.Transport
	workers []worker
	walDir  string
	setupS  float64
}

// close disconnects the clients and stops the stack; it may be called again.
func (l *live) close() error {
	for _, c := range l.conns {
		closeTransport(c)
	}
	l.conns = nil
	if l.st == nil {
		return nil
	}
	st := l.st
	l.st = nil
	return st.stop()
}

func (p *pass) build(e *env, walDir string) (*stack, error) {
	if p.tr != nil {
		return buildTraced(e, walDir, p.tr)
	}
	return buildProd(e, walDir)
}

// setUp is everything between "dataset in memory" and "first measured
// operation": partition, bulk-load and pack (inside the stack builders), WAL
// open and initial checkpoint, listen, dial, catalog or object inserts, and
// the fixed-count warm-up.
func (p *pass) setUp(e *env) (*live, error) {
	runtime.GC() // start every set-up from a collected heap
	start := time.Now()
	l := &live{}
	if p.workload == wlMoving {
		l.walDir = filepath.Join(p.scratch, fmt.Sprintf("wal-%d-%d", os.Getpid(), time.Now().UnixNano()))
		if err := os.MkdirAll(l.walDir, 0o755); err != nil {
			return nil, err
		}
	}
	st, err := p.build(e, l.walDir)
	if err != nil {
		return nil, err
	}
	l.st = st
	clients := clientsOf(p.workload)
	for c := 1; c <= clients; c++ {
		t, err := repro.Dial(st.addr)
		if err != nil {
			l.close()
			return nil, err
		}
		l.conns = append(l.conns, t)
		if p.tr != nil {
			// The capture sits outside the span, so encoding a sampled pair
			// is not counted as transit.
			t = captureTransport(p.tr.wrapTransport(c, t), maxCodecPairs/clients, p.tr.on.Load, &p.codec[c-1])
		}
		var w worker
		if p.workload == wlTour {
			w, err = newTourWorker(e, p.seed, c, t, p.tr)
		} else {
			nw := newNetWorker(e, p.workload, p.seed, c, t, p.tr)
			if p.workload == wlMoving {
				err = nw.insertOwned(p.seed, p.size.owned)
			}
			w = nw
		}
		if err != nil {
			l.close()
			return nil, err
		}
		l.workers = append(l.workers, w)
	}
	warm := max(int(float64(warmupOps[p.workload])*p.size.warmupScale), 1)
	recs, _, _ := drive(l.workers, time.Now(), func(n int, _ int64) bool { return n >= warm })
	for _, rs := range recs {
		for _, r := range rs {
			if !r.ok {
				l.close()
				return nil, fmt.Errorf("%s: an operation failed during warm-up", p.workload)
			}
		}
	}
	for _, w := range l.workers {
		w.tally().reset()
	}
	l.setupS = time.Since(start).Seconds()
	return l, nil
}

// drive runs every worker's closed loop until done(n, now) says stop, n
// being the operations the worker has completed. It returns each worker's
// records and the first start and last end on the base clock.
func drive(workers []worker, base time.Time, done func(n int, now int64) bool) (recs [][]opRec, start, end int64) {
	recs = make([][]opRec, len(workers))
	var wg sync.WaitGroup
	start = int64(time.Since(base))
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := make([]opRec, 0, 1<<16)
			for n := 0; ; n++ {
				w.prepare()
				t0 := int64(time.Since(base))
				if done(n, t0) {
					break
				}
				ok := w.send()
				t1 := int64(time.Since(base))
				rs = append(rs, opRec{end: t1, dur: t1 - t0, kind: w.kind(), ok: ok})
				if !ok {
					break // a dead connection fails every later operation the same way
				}
				w.finish()
			}
			recs[i] = rs
		}()
	}
	wg.Wait()
	for _, rs := range recs {
		if len(rs) > 0 {
			end = max(end, rs[len(rs)-1].end)
		}
	}
	return recs, start, end
}

// window is what one measured window produced.
type window struct {
	recs       [][]opRec
	start, end int64
	cpuMs      float64
	sysMs      float64
	ctxSw      int64
	wireBytes  int64
	mem0, mem1 runtime.MemStats
	tallies    []*tally
	recoverNs  int64 // traced moving-objects: reopening the shards from their WAL
	failed     int   // transport failures + refused updates + oracle refutations + unreadable writes
	attempted  int
	notes      []string // first few failure messages
}

func rusage() (cpuMs, sysMs float64, ctxSw int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0
	}
	ms := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e3 + float64(tv.Usec)/1e3 }
	return ms(ru.Utime) + ms(ru.Stime), ms(ru.Stime), ru.Nvcsw + ru.Nivcsw
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measure runs the window on a warmed-up stack.
func (p *pass) measure(e *env, l *live) *window {
	w := &window{}
	base := time.Now()
	if p.tr != nil {
		base = p.tr.base // spans and operations on one clock
	}
	runtime.GC()
	if p.tr != nil {
		p.tr.on.Store(true)
	}
	net0 := l.st.stats.Snapshot()
	runtime.ReadMemStats(&w.mem0)
	cpu0, sys0, cs0 := rusage()
	deadline := int64(time.Since(base)) + int64(p.seconds*1e9)
	done := func(_ int, now int64) bool { return now >= deadline }
	if p.workload == wlTour {
		count := max(int(p.seconds*tourQueriesPerSecond), 1)
		done = func(n int, _ int64) bool { return n >= count }
	}
	w.recs, w.start, w.end = drive(l.workers, base, done)
	cpu1, sys1, cs1 := rusage()
	runtime.ReadMemStats(&w.mem1)
	net1 := l.st.stats.Snapshot()
	if p.tr != nil {
		p.tr.on.Store(false)
	}
	w.cpuMs, w.sysMs, w.ctxSw = cpu1-cpu0, sys1-sys0, cs1-cs0
	w.wireBytes = (net1.BytesIn - net0.BytesIn) + (net1.BytesOut - net0.BytesOut)
	for _, rs := range w.recs {
		w.attempted += len(rs)
		for _, r := range rs {
			if !r.ok {
				w.fail("operation failed in transit")
			}
		}
	}
	for _, wk := range l.workers {
		t := wk.tally()
		w.tallies = append(w.tallies, t)
		for i := 0; i < t.rejected; i++ {
			w.fail("server refused an update operation")
		}
	}
	p.verify(e, l, w)
	return w
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.notes) < 5 {
		w.notes = append(w.notes, fmt.Sprintf(format, args...))
	}
}

// verify is the oracle, outside the timed path: sampled answers against a
// linear scan, and on moving-objects every acknowledged move read back, live
// and again after reopening the cluster from its flushed bytes alone.
func (p *pass) verify(e *env, l *live, w *window) {
	for c, wk := range l.workers {
		wd := world{e: e}
		if nw, ok := wk.(*netWorker); ok && nw.owned != nil {
			wd.ownBase = nw.owned.base
		}
		for _, s := range wk.tally().samples {
			wd.own = s.own
			w.attempted++
			if err := wd.check(s); err != nil {
				w.fail("client %d: %v", c+1, err)
			}
		}
	}
	if p.workload != wlMoving {
		return
	}
	readBack := func(h wire.Handler, when string) {
		for _, wk := range l.workers {
			o := wk.(*netWorker).owned
			for i, r := range o.rects {
				id := o.base + rtree.ObjectID(i)
				w.attempted++
				resp, err := h(&wire.Request{Client: 7, NoIndex: true, Q: query.NewRange(geom.RectFromPoint(r.Center()))})
				if err != nil {
					w.fail("%s: reading object %d back: %v", when, id, err)
					continue
				}
				found := false
				for _, ob := range resp.Objects {
					found = found || (ob.ID == id && ob.MBR == r)
				}
				if !found {
					w.fail("%s: acknowledged rectangle %v of object %d is not readable", when, r, id)
				}
			}
		}
	}
	readBack(l.st.handler, "live")
	// Close everything, then reopen from the WAL directory: what the
	// restarted shards answer comes from checkpoint + log alone.
	if err := l.close(); err != nil {
		w.fail("shutdown: %v", err)
	}
	st, err := p.build(e, l.walDir)
	if err != nil {
		w.fail("reopening the cluster from its WAL: %v", err)
		return
	}
	l.st = st
	w.recoverNs = st.recoverNs
	readBack(st.handler, "after restart")
}

// results turns a window into the end-to-end metrics defined on the
// workload, by name.
func (w *window) results(workload string, setupS float64) map[string]metricValue {
	var ends []int64
	var qlat, ulat []int64
	for _, rs := range w.recs {
		for _, r := range rs {
			if !r.ok {
				continue
			}
			ends = append(ends, r.end)
			if r.kind == kindUpdate {
				ulat = append(ulat, r.dur)
			} else {
				qlat = append(qlat, r.dur)
			}
		}
	}
	slices.Sort(qlat)
	slices.Sort(ulat)
	ok := len(ends)
	rates := sliceRates(ends, w.start, w.end)
	tl := sumTallies(w.tallies)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	out := map[string]metricValue{
		"setup_s": {Value: setupS},
		// The median slice: a disturbance shorter than half the window
		// (another tenant's burst) does not reach it.
		"ops_per_s":         {Value: median(rates), Samples: ok, Slices: rates},
		"query_p50_us":      {Value: us(percentile(qlat, 0.50)), Samples: len(qlat)},
		"query_p99_us":      {Value: us(percentile(qlat, 0.99)), Samples: len(qlat)},
		"update_p50_us":     {Value: us(percentile(ulat, 0.50)), Samples: len(ulat)},
		"update_p99_us":     {Value: us(percentile(ulat, 0.99)), Samples: len(ulat)},
		"wire_bytes_per_op": {Value: float64(w.wireBytes) / float64(max(ok, 1))},
		"cpu_ms_per_kop":    {Value: w.cpuMs / float64(max(ok, 1)) * 1e3},
		"peak_rss_mb":       {Value: peakRSSMiB()},
		"failed_frac":       {Value: float64(w.failed) / float64(max(w.attempted, 1))},
		"cache_hit_rate":    {Value: mean(float64(tl.savedBytes), int(tl.resultBytes)), Samples: tl.queries},
		"local_answer_frac": {Value: mean(float64(tl.localOnly), tl.queries), Samples: tl.queries},
		"modelled_resp_ms":  {Value: mean(tl.respTimeSum, tl.queries) * 1e3, Samples: tl.queries},
	}
	for _, d := range endToEnd {
		if !d.definedOn(workload) {
			delete(out, d.Name)
			continue
		}
		mv := out[d.Name]
		mv.Unit = d.Unit
		out[d.Name] = mv
	}
	return out
}

// untraced runs the production stack: size.setups set-ups, the last of which
// is measured. setup_s is the median set-up time.
func untraced(e *env, p *pass) (*window, map[string]metricValue, error) {
	var setups []float64
	var l *live
	for i := 0; i < p.size.setups; i++ {
		if l != nil {
			if err := l.close(); err != nil {
				return nil, nil, err
			}
			os.RemoveAll(l.walDir)
		}
		var err error
		if l, err = p.setUp(e); err != nil {
			return nil, nil, err
		}
		setups = append(setups, l.setupS)
	}
	w, err := p.measureAndClose(e, l)
	if err != nil {
		return nil, nil, err
	}
	return w, w.results(p.workload, median(setups)), nil
}

// measureAndClose runs the window and verification, then tears the stack
// down and removes its WAL directory.
func (p *pass) measureAndClose(e *env, l *live) (*window, error) {
	w := p.measure(e, l)
	err := l.close()
	os.RemoveAll(l.walDir)
	return w, err
}
