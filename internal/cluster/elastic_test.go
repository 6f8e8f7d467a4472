package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wire"
)

// Elastic topology correctness: splitting and merging shards online must be
// invisible to clients — the same update history produces the same query
// results as a single-node server, before, during, and after every
// topology change (docs/ELASTIC.md).

// buildBothElastic is buildBoth returning the InProcess handle (for
// SplitShard/MergeShards) instead of just the router.
func buildBothElastic(t testing.TB, objs []dataset.Object, n int, cfg InProcessConfig) (*server.Server, *InProcess, func()) {
	t.Helper()
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	single := buildServer(objs, sizes)
	cfg.Shards = n
	cfg.Tree = rtree.Params{MaxEntries: testMaxEntries}
	cfg.Sizer = func(id rtree.ObjectID) int { return sizes[id] }
	p, err := NewInProcess(objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return single, p, func() {
		single.Close()
		p.Close()
	}
}

// checkEquivalence runs a spread of range/kNN/join queries against both
// backends and compares normalized results.
func checkEquivalence(t *testing.T, tag string, single *server.Server, router *Router, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for qi := 0; qi < 12; qi++ {
		c := geom.Pt(rng.Float64(), rng.Float64())
		var q query.Query
		switch qi % 3 {
		case 0:
			q = query.NewRange(geom.RectFromCenter(c, 0.02+rng.Float64()*0.25, 0.02+rng.Float64()*0.25))
		case 1:
			q = query.NewKNN(c, 1+rng.Intn(16))
		default:
			q = query.NewJoin(geom.RectFromCenter(c, 0.1+rng.Float64()*0.2, 0.1+rng.Float64()*0.2), 0.002+rng.Float64()*0.01)
		}
		qtag := fmt.Sprintf("%s query %d (%s)", tag, qi, q.Kind)
		sResp, _ := single.Execute(&wire.Request{Client: wire.ClientID(700 + qi), Q: q})
		cResp, err := router.RoundTrip(&wire.Request{Client: wire.ClientID(700 + qi), Q: q})
		if err != nil {
			t.Fatalf("%s: %v", qtag, err)
		}
		switch q.Kind {
		case query.Range:
			compareRange(t, qtag, sResp, cResp)
		case query.KNN:
			compareKNN(t, qtag, q, sResp, cResp)
		default:
			compareJoin(t, qtag, sResp, cResp)
		}
	}
	// Full-space sweep: the strongest content check.
	q := query.NewRange(geom.R(-10, -10, 10, 10))
	sResp, _ := single.Execute(&wire.Request{Client: 699, Q: q})
	cResp, err := router.RoundTrip(&wire.Request{Client: 699, Q: q})
	if err != nil {
		t.Fatalf("%s full sweep: %v", tag, err)
	}
	compareRange(t, tag+" full sweep", sResp, cResp)
}

// hottestLive returns the live shard owning the most objects per the gauges.
func hottestLive(p *InProcess) int {
	best, bestN := -1, int64(-1)
	for _, s := range p.LiveShards() {
		if n := p.Router.Stats().Shard(s).Objects.Load(); n > bestN {
			best, bestN = s, n
		}
	}
	return best
}

// gaugeSum adds up the live shards' object-count gauges.
func gaugeSum(p *InProcess) int64 {
	var sum int64
	for _, s := range p.LiveShards() {
		sum += p.Router.Stats().Shard(s).Objects.Load()
	}
	return sum
}

// TestClusterElasticSplitMergeEquivalence interleaves synchronous update
// batches with splits and merges, checking full equivalence and gauge
// consistency after every topology change.
func TestClusterElasticSplitMergeEquivalence(t *testing.T) {
	objs := genObjects(2400, 11)
	single, p, cleanup := buildBothElastic(t, objs, 2, InProcessConfig{})
	defer cleanup()
	router := p.Router
	upd := newUpdateStream(5, objs)

	applyBatch := func(round int) {
		t.Helper()
		ops := upd.batch(50)
		sResp := single.ExecuteUpdates(&wire.Request{Client: 900, Updates: ops})
		cResp, err := router.RoundTrip(&wire.Request{Client: 900, Updates: ops})
		if err != nil {
			t.Fatalf("round %d updates: %v", round, err)
		}
		for i := range sResp.UpdateResults {
			if sResp.UpdateResults[i] != cResp.UpdateResults[i] {
				t.Fatalf("round %d op %d (%+v): ack %v, want %v",
					round, i, ops[i], cResp.UpdateResults[i], sResp.UpdateResults[i])
			}
		}
	}
	checkGauges := func(tag string) {
		t.Helper()
		if got, want := gaugeSum(p), int64(len(upd.rects)); got != want {
			t.Fatalf("%s: object gauges sum to %d, want %d", tag, got, want)
		}
	}

	// Round 0: baseline.
	checkEquivalence(t, "baseline", single, router, 1000)
	checkGauges("baseline")

	type topoOp struct {
		name string
		run  func() error
	}
	schedule := []topoOp{
		{"split#1", func() error { return p.SplitShard(hottestLive(p)) }},
		{"split#2", func() error { return p.SplitShard(hottestLive(p)) }},
		{"split#3", func() error { return p.SplitShard(hottestLive(p)) }},
		{"merge#1", func() error {
			// Merge the most recently split pair: the newest slot is always a
			// leaf and its sibling survives by construction.
			tnew := len(p.Router.slots) - 1
			s, ok := p.SiblingOf(tnew)
			if !ok {
				return fmt.Errorf("slot %d has no mergeable sibling", tnew)
			}
			return p.MergeShards(s, tnew)
		}},
		{"split#4", func() error { return p.SplitShard(hottestLive(p)) }},
		{"merge#2", func() error {
			tnew := len(p.Router.slots) - 1
			s, ok := p.SiblingOf(tnew)
			if !ok {
				return fmt.Errorf("slot %d has no mergeable sibling", tnew)
			}
			return p.MergeShards(s, tnew)
		}},
	}
	for round, op := range schedule {
		applyBatch(round)
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		checkEquivalence(t, op.name, single, router, int64(2000+round))
		checkGauges(op.name)
		applyBatch(round + 100) // updates must route correctly on the new topology
		checkEquivalence(t, op.name+"+updates", single, router, int64(3000+round))
		checkGauges(op.name + "+updates")
	}

	snap := router.Stats().Snapshot()
	if snap.Splits != 4 || snap.Merges != 2 {
		t.Fatalf("counters: %d splits / %d merges, want 4 / 2", snap.Splits, snap.Merges)
	}
	if len(p.LiveShards()) != 4 {
		t.Fatalf("live shards = %v, want 4 live", p.LiveShards())
	}
	if snap.HandoverNanos <= 0 {
		t.Fatal("handover duration not recorded")
	}
}

// TestClusterElasticDurable runs a split and a merge over a WAL-backed
// cluster — covering the durable Spawn path (packed image, fresh WAL dir,
// initial checkpoint) — then crash-restarts the spawned shard and checks
// contents survived.
func TestClusterElasticDurable(t *testing.T) {
	objs := genObjects(1200, 17)
	single, p, cleanup := buildBothElastic(t, objs, 2, InProcessConfig{
		WALDir: t.TempDir(),
	})
	defer cleanup()
	upd := newUpdateStream(23, objs)

	if err := p.SplitShard(0); err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, "durable split", single, p.Router, 4000)

	// Stream updates so the spawned shard's WAL holds a tail past its
	// initial checkpoint, then crash-restart it.
	for i := 0; i < 5; i++ {
		ops := upd.batch(40)
		single.ExecuteUpdates(&wire.Request{Client: 901, Updates: ops})
		if _, err := p.Router.RoundTrip(&wire.Request{Client: 901, Updates: ops}); err != nil {
			t.Fatal(err)
		}
	}
	spawned := 2 // slot the split created
	p.Kill(spawned)
	if err := p.Restart(spawned); err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, "after restart", single, p.Router, 4100)

	s, ok := p.SiblingOf(spawned)
	if !ok {
		t.Fatalf("slot %d has no sibling", spawned)
	}
	if err := p.MergeShards(s, spawned); err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, "durable merge", single, p.Router, 4200)
}

// TestClusterElasticConcurrent splits and merges while query workers and an
// update stream hammer both backends — the -race exercise of the epoch
// fence and of a split's unlocked snapshot and fenced re-read. After the
// storm the contents must be identical.
func TestClusterElasticConcurrent(t *testing.T) {
	objs := genObjects(1500, 43)
	single, p, cleanup := buildBothElastic(t, objs, 2, InProcessConfig{})
	defer cleanup()
	router := p.Router

	upd := newUpdateStream(99, objs)
	batches := make([][]wire.UpdateOp, 30)
	for i := range batches {
		batches[i] = upd.batch(24)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, ops := range batches {
			single.ExecuteUpdates(&wire.Request{Client: 901, Updates: ops})
			if _, err := router.RoundTrip(&wire.Request{Client: 901, Updates: ops}); err != nil {
				t.Errorf("cluster updates: %v", err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 60; i++ {
				c := geom.Pt(rng.Float64(), rng.Float64())
				var q query.Query
				if i%2 == 0 {
					q = query.NewRange(geom.RectFromCenter(c, 0.05, 0.05))
				} else {
					q = query.NewKNN(c, 5)
				}
				if _, err := router.RoundTrip(&wire.Request{Client: wire.ClientID(100 + w), Q: q}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				single.Execute(&wire.Request{Client: wire.ClientID(100 + w), Q: q})
			}
		}(w)
	}
	// Topology churn concurrent with everything above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for cycle := 0; cycle < 3; cycle++ {
			s := hottestLive(p)
			if err := p.SplitShard(s); err != nil {
				t.Errorf("concurrent split: %v", err)
				return
			}
			tnew := router.Shards() - 1
			if cycle%2 == 0 {
				sib, ok := p.SiblingOf(tnew)
				if !ok {
					t.Errorf("slot %d lost its sibling", tnew)
					return
				}
				if err := p.MergeShards(sib, tnew); err != nil {
					t.Errorf("concurrent merge: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	q := query.NewRange(geom.R(0, 0, 1, 1))
	sResp, _ := single.Execute(&wire.Request{Client: 1, Q: q})
	cResp, err := router.RoundTrip(&wire.Request{Client: 1, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	compareRange(t, "final full range", sResp, cResp)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		c := geom.Pt(rng.Float64(), rng.Float64())
		kq := query.NewKNN(c, 8)
		sResp, _ := single.Execute(&wire.Request{Client: 2, Q: kq})
		cResp, err := router.RoundTrip(&wire.Request{Client: 2, Q: kq})
		if err != nil {
			t.Fatal(err)
		}
		compareKNN(t, fmt.Sprintf("final knn %d", i), kq, sResp, cResp)
	}
	if got := gaugeSum(p); got != int64(len(upd.rects)) {
		t.Fatalf("object gauges sum to %d, want %d", got, len(upd.rects))
	}
}

// TestClusterElasticErrors pins the rejection paths: bad slots, non-sibling
// merges, and operations on retired slots must fail without disturbing the
// live topology.
func TestClusterElasticErrors(t *testing.T) {
	objs := genObjects(600, 3)
	single, p, cleanup := buildBothElastic(t, objs, 2, InProcessConfig{})
	defer cleanup()

	if err := p.SplitShard(7); err == nil {
		t.Fatal("splitting a nonexistent slot succeeded")
	}
	if err := p.MergeShards(0, 7); err == nil {
		t.Fatal("merging a nonexistent slot succeeded")
	}
	// Split 0 → slot 2; now 1 and 2 are not siblings (2's sibling is 0).
	if err := p.SplitShard(0); err != nil {
		t.Fatal(err)
	}
	if err := p.MergeShards(1, 2); err == nil {
		t.Fatal("merging non-siblings succeeded")
	}
	if err := p.MergeShards(0, 2); err != nil {
		t.Fatal(err)
	}
	// Slot 2 is retired: splitting or merging it must fail.
	if err := p.SplitShard(2); err == nil {
		t.Fatal("splitting a retired slot succeeded")
	}
	if err := p.MergeShards(0, 2); err == nil {
		t.Fatal("re-merging a retired slot succeeded")
	}
	checkEquivalence(t, "after rejections", single, p.Router, 5000)
}

// TestClusterElasticSkewedGrowth grows one corner of the space until its
// shard holds most of the data, splits that shard, then deletes the growth
// and merges the pair back. Inserts and deletes routed through the router
// reach the corner's current owner, the object gauges follow them, and the
// cluster matches the single node after the split and after the merge.
func TestClusterElasticSkewedGrowth(t *testing.T) {
	objs := dataset.GenerateNE(dataset.Params{N: 1200, Seed: 9}).Objects
	single, p, cleanup := buildBothElastic(t, objs, 2, InProcessConfig{})
	defer cleanup()
	router := p.Router

	apply := func(tag string, ops []wire.UpdateOp) {
		t.Helper()
		sResp := single.ExecuteUpdates(&wire.Request{Client: 900, Updates: ops})
		cResp, err := router.RoundTrip(&wire.Request{Client: 900, Updates: ops})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		for i, ok := range cResp.UpdateResults {
			if !ok || !sResp.UpdateResults[i] {
				t.Fatalf("%s op %d (%+v): cluster ack %v, single ack %v", tag, i, ops[i], ok, sResp.UpdateResults[i])
			}
		}
	}
	const grown = 1200
	id := func(i int) rtree.ObjectID { return rtree.ObjectID(1<<22 + i) }
	rect := func(i int) geom.Rect {
		return geom.RectFromCenter(geom.Pt(0.02+0.0001*float64(i), 0.02), 0.001, 0.001)
	}
	part, err := MakePartition(objs, 2)
	if err != nil {
		t.Fatal(err)
	}
	hot := part.Locate(geom.Pt(0.05, 0.05))
	before := router.Stats().Shard(hot).Objects.Load()
	for i := 0; i < grown; i += 100 {
		ops := make([]wire.UpdateOp, 0, 100)
		for j := i; j < i+100; j++ {
			ops = append(ops, wire.UpdateOp{Kind: wire.UpdateInsert, Obj: id(j), To: rect(j), Size: 64})
		}
		apply(fmt.Sprintf("insert chunk %d", i), ops)
	}
	if got := router.Stats().Shard(hot).Objects.Load(); got != before+grown {
		t.Fatalf("shard %d gauge %d after the growth, want %d", hot, got, before+grown)
	}
	if h := hottestLive(p); h != hot {
		t.Fatalf("hottest live shard %d, want %d (the grown corner's owner)", h, hot)
	}

	if err := p.SplitShard(hot); err != nil {
		t.Fatal(err)
	}
	if live := p.LiveShards(); len(live) != 3 {
		t.Fatalf("live shards %v after the split, want 3", live)
	}
	checkEquivalence(t, "after split", single, router, 6000)
	if got, want := gaugeSum(p), int64(len(objs)+grown); got != want {
		t.Fatalf("gauges sum to %d after the split, want %d", got, want)
	}

	for i := 0; i < grown; i += 100 {
		ops := make([]wire.UpdateOp, 0, 100)
		for j := i; j < i+100; j++ {
			ops = append(ops, wire.UpdateOp{Kind: wire.UpdateDelete, Obj: id(j), From: rect(j)})
		}
		apply(fmt.Sprintf("delete chunk %d", i), ops)
	}
	fresh := len(router.slots) - 1
	s, ok := p.SiblingOf(fresh)
	if !ok || s != hot {
		t.Fatalf("sibling of slot %d = %d, %v; want %d", fresh, s, ok, hot)
	}
	if err := p.MergeShards(s, fresh); err != nil {
		t.Fatal(err)
	}
	if live := p.LiveShards(); len(live) != 2 {
		t.Fatalf("live shards %v after the merge, want 2", live)
	}
	checkEquivalence(t, "after merge", single, router, 6001)
	if got, want := gaugeSum(p), int64(len(objs)); got != want {
		t.Fatalf("gauges sum to %d after the merge, want %d", got, want)
	}
}

// TestClientOverClusterElastic drives real proactive-caching clients (cache
// cuts, remainder handover, epoch tracking) across live splits and merges.
// A split must NOT flush clients — it surfaces as an ordinary invalidation
// window — while a merge must flush (the retired slot's node ids cannot be
// invalidated individually). Query results must match a single-node client
// throughout.
func TestClientOverClusterElastic(t *testing.T) {
	objs := genObjects(2000, 29)
	single, p, cleanup := buildBothElastic(t, objs, 4, InProcessConfig{})
	defer cleanup()
	router := p.Router

	clSingle := newTestClient(t, singleTransport(single), 7)
	clCluster := newTestClient(t, router, 7)
	rng := rand.New(rand.NewSource(321))
	upd := newUpdateStream(17, objs)
	hot := geom.Pt(0.5, 0.5)

	step := func(i int, tag string) {
		t.Helper()
		if i%6 == 5 {
			ops := upd.batch(25)
			single.ExecuteUpdates(&wire.Request{Client: 900, Updates: ops})
			if _, err := router.RoundTrip(&wire.Request{Client: 900, Updates: ops}); err != nil {
				t.Fatalf("%s %d: updates: %v", tag, i, err)
			}
		}
		hot = geom.Pt(clamp01(hot.X+(rng.Float64()-0.5)*0.15), clamp01(hot.Y+(rng.Float64()-0.5)*0.15))
		var q query.Query
		if i%2 == 0 {
			q = query.NewRange(geom.RectFromCenter(hot, 0.05, 0.05))
		} else {
			q = query.NewKNN(hot, 6)
		}
		repS, err := clSingle.Query(q)
		if err != nil {
			t.Fatalf("%s %d: single: %v", tag, i, err)
		}
		repC, err := clCluster.Query(q)
		if err != nil {
			t.Fatalf("%s %d: cluster: %v", tag, i, err)
		}
		w, g := sortedIDs(repS.Results), sortedIDs(repC.Results)
		if len(w) != len(g) {
			t.Fatalf("%s %d (%s): %d results, want %d", tag, i, q.Kind, len(g), len(w))
		}
		if q.Kind != query.KNN {
			for j := range w {
				if w[j] != g[j] {
					t.Fatalf("%s %d: result %d = %d, want %d", tag, i, j, g[j], w[j])
				}
			}
		}
	}

	for i := 0; i < 20; i++ {
		step(i, "warm")
	}

	// A watcher client brought current right before the split.
	const watcher = wire.ClientID(55)
	cat, err := router.RoundTrip(&wire.Request{Client: watcher, Catalog: true})
	if err != nil {
		t.Fatal(err)
	}
	watchEpoch := cat.Epoch

	if err := p.SplitShard(hottestLive(p)); err != nil {
		t.Fatal(err)
	}

	cat, err = router.RoundTrip(&wire.Request{Client: watcher, Catalog: true, Epoch: watchEpoch})
	if err != nil {
		t.Fatal(err)
	}
	if cat.FlushAll {
		t.Fatal("split flushed clients; it must surface as an invalidation window")
	}
	watchEpoch = cat.Epoch

	for i := 0; i < 20; i++ {
		step(i, "post-split")
	}

	tnew := router.Shards() - 1
	sib, ok := p.SiblingOf(tnew)
	if !ok {
		t.Fatalf("slot %d has no sibling", tnew)
	}
	if err := p.MergeShards(sib, tnew); err != nil {
		t.Fatal(err)
	}

	cat, err = router.RoundTrip(&wire.Request{Client: watcher, Catalog: true, Epoch: watchEpoch})
	if err != nil {
		t.Fatal(err)
	}
	if !cat.FlushAll {
		t.Fatal("merge did not flush clients; retired-slot refs would dangle")
	}

	for i := 0; i < 20; i++ {
		step(i, "post-merge")
	}
}

// batchCounter wraps a shard's transport and records the most update
// batches it has had in flight at once since the split's snapshot reached
// it. The snapshot waits (up to 2 s) for two batches to overlap, and each
// batch waits (up to 100 ms) for a partner, so overlap shows as a count
// wherever the router allows it: a source the split serializes never reads
// more than 1.
type batchCounter struct {
	wire.Transport
	armed    atomic.Bool
	inflight atomic.Int32
	max      atomic.Int32
	overlap  chan struct{}
	once     sync.Once
}

func (c *batchCounter) RoundTrip(req *wire.Request) (*wire.Response, error) {
	if len(req.Updates) == 0 {
		if req.NoIndex && !c.armed.Swap(true) { // the split's snapshot
			c.wait(2 * time.Second)
		}
		return c.Transport.RoundTrip(req)
	}
	n := c.inflight.Add(1)
	defer c.inflight.Add(-1)
	if c.armed.Load() {
		for m := c.max.Load(); n > m && !c.max.CompareAndSwap(m, n); m = c.max.Load() {
		}
		if n >= 2 {
			c.once.Do(func() { close(c.overlap) })
		}
		c.wait(100 * time.Millisecond)
	}
	return c.Transport.RoundTrip(req)
}

func (c *batchCounter) wait(d time.Duration) {
	select {
	case <-c.overlap:
	case <-time.After(d):
	}
}

// TestSplitDoesNotSerializeSource runs four update writers inside one
// shard's region while that shard splits. The source's writer must keep
// seeing concurrent batches (so it can group-commit them) during the
// split, and every update the writers landed must be on the right side of
// the cut afterwards.
func TestSplitDoesNotSerializeSource(t *testing.T) {
	objs := genObjects(1600, 61)
	single, p, cleanup := buildBothElastic(t, objs, 2, InProcessConfig{})
	defer cleanup()
	const src = 0
	counter := &batchCounter{Transport: p.Router.slots[src].ep.T, overlap: make(chan struct{})}
	p.Router.slots[src].ep.T = counter
	region := p.Router.part.Regions[src]

	live := int64(len(objs))
	var inserted atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(70 + w)))
			at := func() geom.Rect {
				c := geom.Pt(region.MinX+(0.05+0.9*rng.Float64())*(region.MaxX-region.MinX),
					region.MinY+(0.05+0.9*rng.Float64())*(region.MaxY-region.MinY))
				return geom.RectFromCenter(c, 0.001, 0.001)
			}
			rects := map[rtree.ObjectID]geom.Rect{}
			var ids []rtree.ObjectID
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := rtree.ObjectID(1<<22 + w<<16 + i)
				rects[id] = at()
				ids = append(ids, id)
				ops := []wire.UpdateOp{{Kind: wire.UpdateInsert, Obj: id, To: rects[id], Size: 100 + i}}
				if mv := ids[rng.Intn(len(ids))]; mv != id {
					to := at()
					ops = append(ops, wire.UpdateOp{Kind: wire.UpdateMove, Obj: mv, From: rects[mv], To: to})
					rects[mv] = to
				}
				single.ExecuteUpdates(&wire.Request{Client: wire.ClientID(900 + w), Updates: ops})
				resp, err := p.Router.RoundTrip(&wire.Request{Client: wire.ClientID(900 + w), Updates: ops})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				for j, ok := range resp.UpdateResults {
					if !ok {
						t.Errorf("writer %d batch %d op %d (%+v) refused", w, i, j, ops[j])
						return
					}
				}
				inserted.Add(1)
			}
		}(w)
	}
	splitErr := p.SplitShard(src)
	counter.armed.Store(false)
	close(stop)
	wg.Wait()
	if splitErr != nil {
		t.Fatal(splitErr)
	}
	if t.Failed() {
		return
	}
	if got := counter.max.Load(); got < 2 {
		t.Fatalf("at most %d update batch(es) in flight on the source during its split, want >= 2: the split serializes its source's writer", got)
	}
	checkEquivalence(t, "after a split under four writers", single, p.Router, 7000)
	if got, want := gaugeSum(p), live+inserted.Load(); got != want {
		t.Fatalf("object gauges sum to %d, want %d", got, want)
	}
}

// TestSplitKeepsMovedSizes inserts an object with its own payload size
// through the router, reopens the cluster over its WALs, and splits the
// object's shard so that the object moves. The moved object must keep its
// size: the spawned shard takes sizes from the source's snapshot, not from
// the router's memory, which the reopen emptied.
func TestSplitKeepsMovedSizes(t *testing.T) {
	objs := genObjects(1200, 17)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	cfg := crashConfig(t, sizes)
	cfg.Shards = 2
	p1, err := NewInProcess(objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const src, id, size = 0, rtree.ObjectID(1 << 22), 4321
	// The region's far corner lies past the split's median cut on either
	// axis, so the split moves the object.
	region := p1.Router.part.Regions[src]
	at := geom.RectFromCenter(geom.Pt(region.MaxX-0.01*(region.MaxX-region.MinX), region.MaxY-0.01*(region.MaxY-region.MinY)), 0.0005, 0.0005)
	if _, err := p1.Router.RoundTrip(&wire.Request{Client: 900, Updates: []wire.UpdateOp{{Kind: wire.UpdateInsert, Obj: id, To: at, Size: size}}}); err != nil {
		t.Fatal(err)
	}
	p1.Close()

	p2, err := NewInProcess(objs, cfg)
	if err != nil {
		t.Fatalf("reopen over existing WALs: %v", err)
	}
	defer p2.Close()
	sizeOf := func(tag string) int {
		t.Helper()
		resp, err := p2.Router.RoundTrip(&wire.Request{Client: 5, Q: query.NewRange(at)})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		for _, o := range resp.Objects {
			if o.ID == id {
				return o.Size
			}
		}
		t.Fatalf("%s: object %d not found", tag, id)
		return 0
	}
	if got := sizeOf("after the reopen"); got != size {
		t.Fatalf("after the reopen: size %d, want %d", got, size)
	}
	if err := p2.SplitShard(src); err != nil {
		t.Fatal(err)
	}
	spawned := len(p2.Router.slots) - 1
	if owner := p2.Router.part.LocateRect(at); owner != spawned {
		t.Fatalf("the split left the object on shard %d, want the spawned slot %d", owner, spawned)
	}
	if got := sizeOf("after the split"); got != size {
		t.Fatalf("after the split moved it: size %d, want %d", got, size)
	}
	p2.Kill(spawned)
	if err := p2.Restart(spawned); err != nil {
		t.Fatal(err)
	}
	if got := sizeOf("after the spawned shard's restart"); got != size {
		t.Fatalf("after the spawned shard's restart: size %d, want %d", got, size)
	}
}

// TestReconcile pins the split's catch-up batch: one op (or a delete and
// an insert, for a changed size) per object the snapshot and the fenced
// re-read disagree on, and none for an object unchanged.
func TestReconcile(t *testing.T) {
	r := func(x float64) geom.Rect { return geom.RectFromCenter(geom.Pt(x, x), 0.01, 0.01) }
	snap := []wire.ObjectRep{
		{ID: 1, MBR: r(0.1), Size: 10},
		{ID: 2, MBR: r(0.2), Size: 20},
		{ID: 3, MBR: r(0.3), Size: 30},
		{ID: 4, MBR: r(0.4), Size: 40},
	}
	cur := []wire.ObjectRep{
		{ID: 1, MBR: r(0.1), Size: 10}, // unchanged
		{ID: 2, MBR: r(0.5), Size: 20}, // moved
		{ID: 3, MBR: r(0.3), Size: 31}, // re-inserted with another size
		{ID: 5, MBR: r(0.6), Size: 50}, // inserted
	} // 4 deleted
	want := []wire.UpdateOp{
		{Kind: wire.UpdateMove, Obj: 2, From: r(0.2), To: r(0.5)},
		{Kind: wire.UpdateDelete, Obj: 3, From: r(0.3)},
		{Kind: wire.UpdateInsert, Obj: 3, To: r(0.3), Size: 31},
		{Kind: wire.UpdateInsert, Obj: 5, To: r(0.6), Size: 50},
		{Kind: wire.UpdateDelete, Obj: 4, From: r(0.4)},
	}
	if got := reconcile(snap, cur); !slices.Equal(got, want) {
		t.Fatalf("reconcile =\n%+v\nwant\n%+v", got, want)
	}
	if got := reconcile(cur, cur); len(got) != 0 {
		t.Fatalf("reconcile of identical sets = %+v, want none", got)
	}
}
