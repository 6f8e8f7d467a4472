package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// TestSnapshotNoTornReads is the snapshot-isolation equivalence test: a
// writer goroutine flips a flock of tracked objects between a left and a
// right band, one ApplyUpdates batch per flip, while querier goroutines scan
// the whole space. Every response must be internally consistent with some
// published epoch: the epoch is always a batch boundary (snapshots are
// published per batch, never mid-batch), and all tracked objects sit on the
// single side that epoch implies — a query that saw half a batch would mix
// sides or miss objects. Run under -race this also proves the lock-free
// pin/publish protocol clean.
func TestSnapshotNoTornReads(t *testing.T) {
	const (
		tracked  = 64
		fillers  = 2000
		queriers = 8
		queries  = 150
	)
	trackedRect := func(i int, side int) geom.Rect {
		x := 0.15
		if side == 1 {
			x = 0.85
		}
		y := 0.05 + 0.9*float64(i)/float64(tracked)
		return geom.RectFromCenter(geom.Pt(x, y), 0.01, 0.01)
	}

	r := rand.New(rand.NewSource(400))
	items := make([]rtree.Item, 0, tracked+fillers)
	for i := 0; i < tracked; i++ {
		items = append(items, rtree.Item{Obj: rtree.ObjectID(i + 1), MBR: trackedRect(i, 0)})
	}
	for i := 0; i < fillers; i++ {
		items = append(items, rtree.Item{
			Obj: rtree.ObjectID(1000 + i),
			MBR: geom.RectFromCenter(geom.Pt(0.3+0.4*r.Float64(), r.Float64()), 0.01, 0.01),
		})
	}
	tree := rtree.BulkLoad(rtree.Params{MaxEntries: 8}, items, 0.7)
	srv := New(tree, func(rtree.ObjectID) int { return 1000 }, Config{InitialD: 1})
	defer srv.Close()

	stop := make(chan struct{})
	errs := make(chan error, queriers+1)

	var mover sync.WaitGroup
	mover.Add(1)
	go func() {
		defer mover.Done()
		side := 0
		ops := make([]wire.UpdateOp, tracked)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < tracked; i++ {
				ops[i] = wire.UpdateOp{
					Kind: wire.UpdateMove,
					Obj:  rtree.ObjectID(i + 1),
					From: trackedRect(i, side),
					To:   trackedRect(i, 1-side),
				}
			}
			res := srv.ApplyUpdates(ops, nil)
			for i, ok := range res {
				if !ok {
					select {
					case errs <- fmt.Errorf("flip move %d failed", i):
					default:
					}
					return
				}
			}
			side = 1 - side
		}
	}()

	all := query.NewRange(geom.R(0, 0, 1, 1))
	var wg sync.WaitGroup
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lastEpoch uint64
			for i := 0; i < queries; i++ {
				req := &wire.Request{Client: wire.ClientID(g + 1), Q: all, NoIndex: i%2 == 0}
				resp, _ := srv.Execute(req)
				if resp.Epoch%tracked != 0 {
					errs <- fmt.Errorf("querier %d: epoch %d is not a batch boundary", g, resp.Epoch)
					return
				}
				if resp.Epoch < lastEpoch {
					errs <- fmt.Errorf("querier %d: epoch went backwards (%d < %d)", g, resp.Epoch, lastEpoch)
					return
				}
				lastEpoch = resp.Epoch
				wantRight := (resp.Epoch/tracked)%2 == 1
				seen := 0
				for _, o := range resp.Objects {
					if o.ID > tracked {
						continue
					}
					seen++
					right := o.MBR.Center().X > 0.5
					if right != wantRight {
						errs <- fmt.Errorf("querier %d: torn read at epoch %d: object %d on the %v side",
							g, resp.Epoch, o.ID, right)
						return
					}
				}
				if seen != tracked {
					errs <- fmt.Errorf("querier %d: epoch %d saw %d of %d tracked objects", g, resp.Epoch, seen, tracked)
					return
				}
				srv.ReleaseResponse(resp)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	mover.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestApplyUpdatesBatchSemantics checks the batched entry point against a
// model: random batches of inserts, deletes, and moves, each acknowledged
// per operation, with a full-space query verifying the object set after
// every batch. Repeated rotation through the writer's tree buffers must
// never lose or duplicate state.
func TestApplyUpdatesBatchSemantics(t *testing.T) {
	srv, items := updServer(t, 400, 0)
	defer srv.Close()
	r := rand.New(rand.NewSource(401))
	live := make(map[rtree.ObjectID]geom.Rect, len(items))
	for _, it := range items {
		live[it.Obj] = it.MBR
	}
	next := rtree.ObjectID(len(items) + 1)

	var ops []wire.UpdateOp
	var want []bool
	for round := 0; round < 40; round++ {
		ops, want = ops[:0], want[:0]
		model := make(map[rtree.ObjectID]geom.Rect, len(live))
		for id, mbr := range live {
			model[id] = mbr
		}
		for k := 0; k < 16; k++ {
			switch r.Intn(4) {
			case 0:
				mbr := geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01)
				ops = append(ops, wire.UpdateOp{Kind: wire.UpdateInsert, Obj: next, To: mbr, Size: 700})
				want = append(want, true)
				model[next] = mbr
				next++
			case 1:
				for id, mbr := range model {
					ops = append(ops, wire.UpdateOp{Kind: wire.UpdateDelete, Obj: id, From: mbr})
					want = append(want, true)
					delete(model, id)
					break
				}
			case 2:
				for id, mbr := range model {
					to := geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01)
					ops = append(ops, wire.UpdateOp{Kind: wire.UpdateMove, Obj: id, From: mbr, To: to})
					want = append(want, true)
					model[id] = to
					break
				}
			default:
				// A miss: the object is not where From claims.
				ops = append(ops, wire.UpdateOp{Kind: wire.UpdateDelete, Obj: 999_999, From: geom.R(0, 0, 1, 1)})
				want = append(want, false)
			}
		}
		res := srv.ApplyUpdates(ops, nil)
		if len(res) != len(want) {
			t.Fatalf("round %d: %d results for %d ops", round, len(res), len(ops))
		}
		for i := range want {
			if res[i] != want[i] {
				t.Fatalf("round %d: op %d (%+v) result %v, want %v", round, i, ops[i], res[i], want[i])
			}
		}
		live = model

		resp, _ := srv.Execute(&wire.Request{Q: query.NewRange(geom.R(0, 0, 1, 1)), NoIndex: true})
		if len(resp.Objects) != len(live) {
			t.Fatalf("round %d: query sees %d objects, model has %d", round, len(resp.Objects), len(live))
		}
		for _, o := range resp.Objects {
			if mbr, ok := live[o.ID]; !ok || mbr != o.MBR {
				t.Fatalf("round %d: object %d at %+v, model says %+v (present %v)", round, o.ID, o.MBR, mbr, ok)
			}
		}
		if err := srv.Tree().Validate(false); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestReadYourWrites pins the synchronous mutator contract: the moment
// MoveObject returns, the published snapshot contains the move.
func TestReadYourWrites(t *testing.T) {
	srv, items := updServer(t, 300, 0)
	defer srv.Close()
	it := items[0]
	to := geom.RectFromCenter(geom.Pt(0.99, 0.99), 0.001, 0.001)
	if !srv.MoveObject(it.Obj, it.MBR, to) {
		t.Fatal("move failed")
	}
	resp, _ := srv.Execute(&wire.Request{Q: query.NewKNN(geom.Pt(0.99, 0.99), 1), NoIndex: true})
	if len(resp.Objects) != 1 || resp.Objects[0].ID != it.Obj {
		t.Fatalf("moved object not visible immediately: %+v", resp.Objects)
	}
	if resp.Epoch == 0 {
		t.Fatal("epoch did not advance")
	}
}

// TestExecuteUpdatesResponse drives the wire-facing batched update entry
// point: per-op results, post-batch epoch, root descriptor, and the
// invalidation report for the updater's own epoch.
func TestExecuteUpdatesResponse(t *testing.T) {
	srv, items := updServer(t, 300, 0)
	defer srv.Close()
	req := &wire.Request{
		Client: 9,
		Epoch:  0,
		Updates: []wire.UpdateOp{
			{Kind: wire.UpdateInsert, Obj: 50_000, To: geom.R(0.5, 0.5, 0.51, 0.51), Size: 123},
			{Kind: wire.UpdateDelete, Obj: items[3].Obj, From: items[3].MBR},
			{Kind: wire.UpdateDelete, Obj: 777_777, From: geom.R(0, 0, 0.1, 0.1)},
		},
	}
	resp := srv.ExecuteUpdates(req)
	wantRes := []bool{true, true, false}
	if len(resp.UpdateResults) != len(wantRes) {
		t.Fatalf("results = %v", resp.UpdateResults)
	}
	for i, w := range wantRes {
		if resp.UpdateResults[i] != w {
			t.Fatalf("result %d = %v, want %v", i, resp.UpdateResults[i], w)
		}
	}
	if resp.Epoch != srv.Epoch() || resp.Epoch != 2 {
		t.Fatalf("epoch = %d (server %d), want 2", resp.Epoch, srv.Epoch())
	}
	if resp.RootID != srv.Tree().Root() {
		t.Fatal("root descriptor missing")
	}
	// The deleting client's own report mentions the deleted object.
	found := false
	for _, id := range resp.InvalidObjs {
		if id == items[3].Obj {
			found = true
		}
	}
	if !found {
		t.Fatalf("invalidation report %v misses the deletion", resp.InvalidObjs)
	}
	srv.ReleaseResponse(resp)

	// The inserted object's size overlay is live.
	qresp, _ := srv.Execute(&wire.Request{Q: query.NewKNN(geom.Pt(0.505, 0.505), 1), NoIndex: true})
	if len(qresp.Objects) != 1 || qresp.Objects[0].ID != 50_000 || qresp.Objects[0].Size != 123 {
		t.Fatalf("inserted object not served: %+v", qresp.Objects)
	}
}

// TestCloseDrainsWriter checks that Close applies everything already queued,
// is idempotent (including concurrently), leaves nothing of the server
// running after an update storm with concurrent readers, that a snapshot the
// storm retired is garbage once its readers are gone, and that a server
// remains queryable afterwards.
func TestCloseDrainsWriter(t *testing.T) {
	// Goroutines the package's servers have started; earlier tests leave
	// their idle writers behind, so the check below is a before/after count.
	serverGoroutines := func() (int, string) {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		return strings.Count(stacks, "created by repro/internal/server.(*"), stacks
	}
	before, _ := serverGoroutines()

	srv, items := updServer(t, 200, 0)
	for i := 0; i < 10; i++ {
		if !srv.DeleteObject(items[i].Obj, items[i].MBR) {
			t.Fatalf("delete %d failed", i)
		}
	}

	// The snapshot the storm is about to retire, and its tree version: nothing
	// but readers may keep them from the garbage collector.
	collected := make(chan string, 2) // one send per finalizer
	func() {
		v := srv.cur.Load()
		runtime.SetFinalizer(v, func(*snapshot) { collected <- "snapshot" })
		runtime.SetFinalizer(v.tree, func(*rtree.Tree) { collected <- "tree" })
	}()

	// Update storm: every batch moves a slice of the survivors while readers
	// keep querying whatever snapshot is current.
	const batches, perBatch = 40, 20
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := geom.Pt(r.Float64(), r.Float64())
				resp, _ := srv.Execute(&wire.Request{Client: wire.ClientID(g + 1), Q: query.NewRange(geom.RectFromCenter(c, 0.3, 0.3))})
				srv.ReleaseResponse(resp)
				runtime.Gosched() // readers must not starve the storm on few cores
			}
		}(g)
	}
	live := items[10:]
	for b := 0; b < batches; b++ {
		var ops []wire.UpdateOp
		for i := 0; i < perBatch; i++ {
			it := &live[(b*perBatch+i)%len(live)]
			to := geom.R(it.MBR.MinX+0.001, it.MBR.MinY, it.MBR.MaxX+0.001, it.MBR.MaxY)
			ops = append(ops, wire.UpdateOp{Kind: wire.UpdateMove, Obj: it.Obj, From: it.MBR, To: to})
			it.MBR = to
		}
		for i, ok := range srv.ApplyUpdates(ops, nil) {
			if !ok {
				t.Fatalf("batch %d: move %d rejected", b, i)
			}
		}
	}
	close(stop)
	readers.Wait()

	var closers sync.WaitGroup
	for i := 0; i < 3; i++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			srv.Close()
		}()
	}
	closers.Wait()
	srv.Close()

	// Nothing the server started may outlive Close (the writer goroutine is
	// given a moment to finish returning after it signalled done) ...
	deadline := time.Now().Add(2 * time.Second)
	for {
		n, stacks := serverGoroutines()
		if n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines started by the server still running after Close:\n%s", n-before, stacks)
		}
		time.Sleep(time.Millisecond)
	}
	// ... and the retired snapshot is collectable: no reader, pool or writer
	// structure still refers to it or to its tree version.
	gcDeadline := time.Now().Add(5 * time.Second)
	for got := 0; got < 2; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(gcDeadline) {
				t.Fatalf("retired snapshot still reachable after Close: %d of 2 finalizers ran", got)
			}
		}
	}

	resp, _ := srv.Execute(&wire.Request{Q: query.NewRange(geom.R(0, 0, 2, 2)), NoIndex: true})
	if len(resp.Objects) != len(items)-10 {
		t.Fatalf("post-close query sees %d objects, want %d", len(resp.Objects), len(items)-10)
	}
	if want := uint64(10 + batches*perBatch); srv.Epoch() != want {
		t.Fatalf("post-close epoch %d, want %d", srv.Epoch(), want)
	}
}

// TestDeadSlotsReclaimed checks that the page table does not keep pages of
// deleted nodes: NodeIDs are never reused, so without the writer retiring a
// freed node's slot its last page would stay cached forever. After churn
// that condenses the tree, and a query that visits every node, the cached
// pages are exactly the live non-empty nodes.
func TestDeadSlotsReclaimed(t *testing.T) {
	srv, items := updServer(t, 600, 0)
	defer srv.Close()
	r := rand.New(rand.NewSource(3))
	next := rtree.ObjectID(len(items) + 1)
	for round := 0; round < 6; round++ {
		// Empty out one corner (nodes condense and are freed), then refill
		// elsewhere (nodes split and new ids are issued).
		var ops []wire.UpdateOp
		kept := items[:0]
		for _, it := range items {
			if len(ops) < 80 && it.MBR.Center().X < 0.5 {
				ops = append(ops, wire.UpdateOp{Kind: wire.UpdateDelete, Obj: it.Obj, From: it.MBR})
			} else {
				kept = append(kept, it)
			}
		}
		items = kept
		for i := 0; i < 80; i++ {
			it := rtree.Item{Obj: next, MBR: geom.RectFromCenter(geom.Pt(0.5+r.Float64()/2, r.Float64()), 0.01, 0.01)}
			next++
			ops = append(ops, wire.UpdateOp{Kind: wire.UpdateInsert, Obj: it.Obj, To: it.MBR})
			items = append(items, it)
		}
		srv.ApplyUpdates(ops, nil)
	}

	resp, _ := srv.Execute(&wire.Request{Q: query.NewRange(geom.R(-1, -1, 2, 2))})
	if len(resp.Objects) != len(items) {
		t.Fatalf("full scan sees %d objects, want %d", len(resp.Objects), len(items))
	}
	v := srv.cur.Load()
	live := 0
	v.tree.Nodes(func(n *rtree.Node) bool {
		if len(n.Entries) > 0 {
			live++
		}
		return true
	})
	if dead := int(v.tree.NodeSpan()) - 1 - v.tree.NodeCount(); dead == 0 {
		t.Fatal("churn freed no node; the test exercises nothing")
	}
	if cached := v.pages.NodeCount(); cached != live {
		t.Fatalf("page table caches %d pages for %d live non-empty nodes", cached, live)
	}
}

// TestSlowReaderDoesNotStallWriter holds four snapshots of different epochs
// open while the writer publishes ten more batches: every batch
// must return promptly (a held version costs the writer nothing — there is
// no buffer to wait for), and each held tree must come out of the wait valid
// and bit-identical to what it was when it was taken.
func TestSlowReaderDoesNotStallWriter(t *testing.T) {
	srv, items := updServer(t, 400, 0)
	defer srv.Close()

	release := make(chan struct{})
	var releaseOnce sync.Once
	var holders sync.WaitGroup
	letGo := func() {
		releaseOnce.Do(func() { close(release) })
		holders.Wait()
	}
	defer letGo() // before Close, which waits for the writer

	hold := func() uint64 {
		taken := make(chan uint64)
		holders.Add(1)
		go func() {
			defer holders.Done()
			v := srv.cur.Load()
			tree, epoch := v.tree, v.epoch
			image := tree.AppendImage(nil)
			taken <- epoch
			<-release
			if err := tree.Validate(false); err != nil {
				t.Errorf("tree held since epoch %d is invalid: %v", epoch, err)
			}
			if !bytes.Equal(tree.AppendImage(nil), image) {
				t.Errorf("tree held since epoch %d changed while held", epoch)
			}
		}()
		return <-taken
	}
	var held []uint64
	batch := 0
	apply := func() {
		var ops []wire.UpdateOp
		for i := 0; i < 20; i++ {
			it := &items[(batch*20+i)%len(items)]
			to := geom.R(it.MBR.MinX+0.001, it.MBR.MinY, it.MBR.MaxX+0.001, it.MBR.MaxY)
			ops = append(ops, wire.UpdateOp{Kind: wire.UpdateMove, Obj: it.Obj, From: it.MBR, To: to})
			it.MBR = to
		}
		batch++
		done := make(chan []bool, 1)
		go func() { done <- srv.ApplyUpdates(ops, nil) }()
		select {
		case res := <-done:
			for i, ok := range res {
				if !ok {
					t.Fatalf("batch %d: move %d rejected", batch, i)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("batch %d stalled behind %d held snapshots", batch, len(held))
		}
	}

	for i := 0; i < 4; i++ {
		held = append(held, hold())
		apply()
	}
	for i := 0; i < 10; i++ {
		apply()
	}
	for i, e := range held {
		if want := uint64(i * 20); e != want {
			t.Errorf("holder %d took epoch %d, want %d", i, e, want)
		}
	}
	if want := uint64(14 * 20); srv.Epoch() != want {
		t.Errorf("epoch %d after 14 batches, want %d", srv.Epoch(), want)
	}
	letGo()
}
