package main

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/bpt"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/wire"
)

const (
	maxCodecPairs  = 4096
	codecEvery     = 16
	probeRepeats   = 3
	movedShare     = 0.01 // objects moved before rtree.repack_ms is taken
	genProbeOps    = 100_000
	codecMinReplay = 50 * time.Millisecond
)

// codecSample is one request/response pair as it crossed the wire.
type codecSample struct{ req, resp []byte }

// captureTransport keeps every codecEvery-th pair a client exchanged, up to
// limit, encoded on the spot so later reuse of either struct cannot
// change what is replayed.
func captureTransport(inner wire.Transport, limit int, on func() bool, into *[]codecSample) wire.Transport {
	n := 0
	return wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
		resp, err := inner.RoundTrip(req)
		n++
		if err == nil && n%codecEvery == 0 && len(*into) < limit && on() {
			*into = append(*into, codecSample{wire.EncodeRequest(nil, req), wire.EncodeResponse(nil, resp)})
		}
		return resp, err
	})
}

// codecReplay times the four codec functions over the sample and counts
// their allocations.
func codecReplay(samples []codecSample, out map[string]float64) error {
	if len(samples) == 0 {
		return nil
	}
	reqs := make([]*wire.Request, len(samples))
	resps := make([]*wire.Response, len(samples))
	var reqBytes, respBytes int
	for i, s := range samples {
		var err error
		if reqs[i], err = wire.DecodeRequest(s.req); err != nil {
			return fmt.Errorf("codec replay: %w", err)
		}
		if resps[i], err = wire.DecodeResponse(s.resp); err != nil {
			return fmt.Errorf("codec replay: %w", err)
		}
		reqBytes += len(s.req)
		respBytes += len(s.resp)
	}
	var buf []byte
	steps := []struct {
		name string
		fn   func(i int)
	}{
		{"wire.encode_req_ns", func(i int) { buf = wire.EncodeRequest(buf[:0], reqs[i]) }},
		{"wire.decode_req_ns", func(i int) { wire.DecodeRequest(samples[i].req) }},
		{"wire.encode_resp_ns", func(i int) { buf = wire.EncodeResponse(buf[:0], resps[i]) }},
		{"wire.decode_resp_ns", func(i int) { wire.DecodeResponse(samples[i].resp) }},
	}
	var m0, m1 runtime.MemStats
	allocs := 0.0 // per request/response pair, over the four steps
	for _, st := range steps {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		rounds := 0
		for time.Since(start) < codecMinReplay {
			for i := range samples {
				st.fn(i)
			}
			rounds++
		}
		out[st.name] = float64(time.Since(start)) / float64(rounds*len(samples))
		runtime.ReadMemStats(&m1)
		allocs += float64(m1.Mallocs-m0.Mallocs) / float64(rounds*len(samples))
	}
	// A pair is two messages, each encoded once and decoded once on its way.
	out["wire.codec_allocs_per_msg"] = allocs / 2
	out["wire.req_bytes"] = float64(reqBytes) / float64(len(samples))
	out["wire.resp_bytes"] = float64(respBytes) / float64(len(samples))
	return nil
}

func medianOf(n int, fn func() time.Duration) float64 {
	ds := make([]float64, n)
	for i := range ds {
		ds[i] = float64(fn())
	}
	return median(ds)
}

// indexProbes times the index-building steps every set-up and every update
// batch pays, on the workload's dataset as one tree.
func indexProbes(e *env, out map[string]float64) {
	items := e.items(e.objects)
	var tree *rtree.Tree
	out["rtree.bulkload_ms"] = medianOf(probeRepeats, func() time.Duration {
		s := time.Now()
		tree = rtree.BulkLoad(e.treeParams, items, bulkFill)
		return time.Since(s)
	}) / 1e6
	var packed *rtree.Packed
	out["rtree.pack_ms"] = medianOf(probeRepeats, func() time.Duration {
		s := time.Now()
		packed = rtree.Pack(tree)
		return time.Since(s)
	}) / 1e6
	var clone *rtree.Tree
	out["rtree.clone_ms"] = medianOf(probeRepeats, func() time.Duration {
		s := time.Now()
		clone = tree.Clone()
		return time.Since(s)
	}) / 1e6
	rng := clientRNG(0, "probe", 0, 0)
	for i := 0; i < int(float64(len(items))*movedShare); i++ {
		it := items[rng.Intn(len(items))]
		if !clone.Delete(it.Obj, it.MBR) {
			continue // already moved
		}
		c := it.MBR.Center()
		clone.Insert(it.Obj, quantRect(geom.RectFromCenter(
			geom.Pt(c.X+rng.NormFloat64()*moveSigma, c.Y+rng.NormFloat64()*moveSigma), it.MBR.Width(), it.MBR.Height())))
	}
	out["rtree.repack_ms"] = medianOf(probeRepeats, func() time.Duration {
		s := time.Now()
		rtree.Repack(clone, packed)
		return time.Since(s)
	}) / 1e6
	nodes := 0
	tree.Nodes(func(*rtree.Node) bool { nodes++; return true })
	out["bpt.build_ns_per_node"] = medianOf(probeRepeats, func() time.Duration {
		s := time.Now()
		tree.Nodes(func(n *rtree.Node) bool {
			if len(n.Entries) > 0 {
				bpt.Build(n.ID, n.Entries)
			}
			return true
		})
		return time.Since(s)
	}) / float64(max(nodes, 1))
}

// genProbe times request generation alone: the harness's own share of every
// operation.
func genProbe(e *env, p *pass) float64 {
	if p.workload == wlTour {
		t := newTour(p.seed, 1)
		start := time.Now()
		for i := 0; i < genProbeOps; i++ {
			t.next()
		}
		return float64(time.Since(start)) / genProbeOps
	}
	w := newNetWorker(e, p.workload, p.seed, 1, nil, nil)
	if p.workload == wlMoving {
		w.owned = &owned{base: ownedBase(e, 1, p.size.owned), rects: initialRects(e, clientRNG(p.seed, wlMoving, 1, 3), p.size.owned)}
	}
	start := time.Now()
	for i := 0; i < genProbeOps; i++ {
		w.prepare()
	}
	return float64(time.Since(start)) / genProbeOps
}

// analyse turns the recorded spans into per-layer numbers.
func analyse(spans []span, out map[string]float64) {
	var transit, routeSelf, updRouteSelf, clientSelf []int64
	var exec, apply, appendNs []int64
	var applyIv []interval
	var execSpans []span
	var fanout, queries, hLen, remote int
	var visited, results, acked, applyTotal, walOps, walAppends, walBytes int64
	var ckptMax int64
	var ckpts int

	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].req == spans[i].req {
			j++
		}
		group := spans[i:j]
		i = j
		if group[0].req == 0 { // WAL spans belong to no request
			for _, s := range group {
				if s.kind == kindCheckpoint {
					ckpts++
					ckptMax = max(ckptMax, s.dur())
					walBytes += int64(s.b)
					continue
				}
				appendNs = append(appendNs, s.dur())
				walAppends++
				walOps += int64(s.a)
				walBytes += int64(s.b)
			}
			continue
		}
		var client, route *span
		var transports, shards []interval
		for k := range group {
			s := &group[k]
			switch s.layer {
			case layerClient:
				client = s
			case layerTransport:
				transports = append(transports, s.interval())
				if s.kind == kindQuery {
					remote++
					hLen += int(s.a)
				}
			case layerRoute:
				route = s
			case layerShard:
				shards = append(shards, s.interval())
				switch s.kind {
				case kindQuery:
					exec = append(exec, s.dur())
					execSpans = append(execSpans, *s)
					visited += int64(s.a)
					results += int64(s.b)
				case kindUpdate:
					apply = append(apply, s.dur())
					applyIv = append(applyIv, s.interval())
					applyTotal += s.dur()
					acked += int64(s.a)
				}
			}
		}
		if client != nil {
			clientSelf = append(clientSelf, selfTime(client.interval(), transports))
		}
		// A request whose transport span fell outside the window (or a
		// retried tour query with several) is left out of the joins below.
		if route == nil || len(transports) != 1 {
			continue
		}
		transit = append(transit, transports[0].end-transports[0].start-route.dur())
		self := selfTime(route.interval(), shards)
		switch route.kind {
		case kindQuery:
			routeSelf = append(routeSelf, self)
			fanout += len(shards)
			queries++
		case kindUpdate:
			updRouteSelf = append(updRouteSelf, self)
		}
	}

	p50us := func(v []int64) float64 {
		slices.Sort(v)
		return float64(percentile(v, 0.5)) / 1e3
	}
	out["wire.transit_us"] = p50us(transit)
	out["cluster.route_self_us"] = p50us(routeSelf)
	out["cluster.update_route_self_us"] = p50us(updRouteSelf)
	out["cluster.fanout"] = mean(float64(fanout), queries)
	out["server.execute_us"] = p50us(exec)
	out["server.execute_p99_us"] = float64(percentile(exec, 0.99)) / 1e3 // exec is sorted now
	out["server.visited_nodes_per_query"] = mean(float64(visited), len(exec))
	out["server.nodes_per_result"] = mean(float64(visited), int(results))
	out["server.apply_updates_us"] = p50us(apply)
	out["server.apply_us_per_move"] = mean(float64(applyTotal), int(acked)) / 1e3
	out["core.client_self_us"] = p50us(clientSelf)
	out["core.remote_h_len"] = mean(float64(hLen), remote)
	out["wal.append_us"] = p50us(appendNs)
	out["wal.ops_per_append"] = mean(float64(walOps), int(walAppends))
	out["wal.bytes_per_update"] = mean(float64(walBytes), int(acked))
	out["wal.checkpoint_ms"] = float64(ckptMax) / 1e6
	out["wal.checkpoints"] = float64(ckpts)

	// Queries that ran while some shard was applying a batch.
	slices.SortFunc(applyIv, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	var during []int64
	for _, s := range execSpans {
		k := sort.Search(len(applyIv), func(k int) bool { return applyIv[k].start >= s.end })
		// Apply spans of both shards interleave, so look a few back for one
		// that is still open at the query's start.
		for b := k - 1; b >= 0 && b >= k-4; b-- {
			if applyIv[b].end > s.start {
				during = append(during, s.dur())
				break
			}
		}
	}
	out["server.queries_during_apply_p50_us"] = p50us(during)
}

// tee sends every request to both stacks and requires byte-identical
// encodings of their responses.
type tee struct {
	prod, traced wire.Handler
	n            int
	cutsDiffer   int // see sameButCuts
	err          error
}

func (t *tee) RoundTrip(req *wire.Request) (*wire.Response, error) {
	t.n++
	a, errA := t.prod(req)
	b, errB := t.traced(req)
	if t.err == nil {
		switch {
		case (errA == nil) != (errB == nil):
			t.err = fmt.Errorf("request %d: production stack says %v, traced stack says %v", t.n, errA, errB)
		case errA != nil || bytes.Equal(wire.EncodeResponse(nil, a), wire.EncodeResponse(nil, b)):
		case sameButCuts(a, b):
			t.cutsDiffer++
		default:
			t.err = fmt.Errorf("request %d (%v): the two stacks answer differently", t.n, req.Q.Kind)
		}
	}
	return a, errA
}

// sameButCuts reports whether two responses encode identically once the
// elements of their index nodes are left out. The production stack does not
// repeat itself there: on a cross-shard join with a handed-over queue, which
// cut a node is shipped at depends on what the servers' sync.Pools hold,
// which garbage collection timing decides. Such a pair is counted and
// reported, not failed: it does not tell the two compositions apart.
func sameButCuts(a, b *wire.Response) bool {
	strip := func(r *wire.Response) []byte {
		c := *r
		c.Index = make([]wire.NodeRep, len(r.Index))
		for i, n := range r.Index {
			c.Index[i] = wire.NodeRep{ID: n.ID, Level: n.Level}
		}
		return wire.EncodeResponse(nil, &c)
	}
	return bytes.Equal(strip(a), strip(b))
}

// checkEquivalence replays the workload's first requests, clients taking
// turns, through the production stack and the hand-composed traced stack, so
// that per-layer numbers describe the stack users run.
func checkEquivalence(e *env, p *pass) (cutsDiffer int, err error) {
	dirs := [2]string{}
	if p.workload == wlMoving {
		for i := range dirs {
			dirs[i] = filepath.Join(p.scratch, fmt.Sprintf("equiv-%d-%d", os.Getpid(), i))
			defer os.RemoveAll(dirs[i])
		}
	}
	prod, err := buildProd(e, dirs[0])
	if err != nil {
		return 0, err
	}
	defer prod.stop()
	off, _ := newTracer(0) // records nothing
	traced, err := buildTraced(e, dirs[1], off)
	if err != nil {
		return 0, err
	}
	defer traced.stop()
	t := &tee{prod: prod.handler, traced: traced.handler}
	var workers []worker
	for c := 1; c <= clientsOf(p.workload); c++ {
		if p.workload == wlTour {
			w, err := newTourWorker(e, p.seed, c, t, nil)
			if err != nil {
				return 0, err
			}
			workers = append(workers, w)
			continue
		}
		w := newNetWorker(e, p.workload, p.seed, c, t, nil)
		if p.workload == wlMoving {
			if err := w.insertOwned(p.seed, p.size.owned); err != nil {
				return 0, err
			}
		}
		workers = append(workers, w)
	}
	for i := 0; t.n < p.size.equiv && t.err == nil; i++ {
		w := workers[i%len(workers)]
		w.prepare()
		if !w.send() {
			return t.cutsDiffer, fmt.Errorf("equivalence replay: operation %d failed", i)
		}
		w.finish()
	}
	return t.cutsDiffer, t.err
}
