package server

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// mixedQueries builds a deterministic workload of interleaved range and kNN
// queries scattered over the unit square.
func mixedQueries(seed int64, n int) []query.Query {
	r := rand.New(rand.NewSource(seed))
	qs := make([]query.Query, n)
	for i := range qs {
		p := geom.Pt(r.Float64(), r.Float64())
		if i%2 == 0 {
			qs[i] = query.NewRange(geom.RectFromCenter(p, 0.04, 0.04))
		} else {
			qs[i] = query.NewKNN(p, 1+r.Intn(8))
		}
	}
	return qs
}

func objectIDs(resp *wire.Response) []rtree.ObjectID {
	ids := make([]rtree.ObjectID, len(resp.Objects))
	for i, o := range resp.Objects {
		ids[i] = o.ID
	}
	return ids
}

// TestConcurrentClientsMatchSerial runs many clients issuing mixed range and
// kNN queries against one Server at once and cross-checks every response
// against a single-threaded execution of the same workload. Run under
// -race this is the tentpole regression test for the concurrent serving
// path: sharded client state, the partition-tree page table, and the
// lock-free snapshot pin.
func TestConcurrentClientsMatchSerial(t *testing.T) {
	const (
		clients          = 8
		queriesPerClient = 40
	)
	srv, _ := buildServer(t, 80, 2000, Config{Form: AdaptiveForm, InitialD: 2})

	// Serial ground truth on an identically built server. Distinct client
	// ids with no FMR feedback keep d pinned at InitialD, so responses are
	// deterministic functions of the query alone.
	ref, _ := buildServer(t, 80, 2000, Config{Form: AdaptiveForm, InitialD: 2})
	want := make([][][]rtree.ObjectID, clients)
	for c := 0; c < clients; c++ {
		qs := mixedQueries(int64(100+c), queriesPerClient)
		want[c] = make([][]rtree.ObjectID, len(qs))
		for i, q := range qs {
			resp, _ := ref.Execute(&wire.Request{Client: wire.ClientID(c + 1), Q: q})
			want[c][i] = objectIDs(resp)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			qs := mixedQueries(int64(100+c), queriesPerClient)
			for i, q := range qs {
				resp, info := srv.Execute(&wire.Request{Client: wire.ClientID(c + 1), Q: q})
				if info.D != 2 {
					errs <- fmt.Errorf("client %d query %d: d = %d, want 2", c, i, info.D)
					return
				}
				got := objectIDs(resp)
				if len(got) != len(want[c][i]) {
					errs <- fmt.Errorf("client %d query %d: %d objects, want %d", c, i, len(got), len(want[c][i]))
					return
				}
				for j := range got {
					if got[j] != want[c][i][j] {
						errs <- fmt.Errorf("client %d query %d: object %d is %d, want %d", c, i, j, got[j], want[c][i][j])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// q32Query quantizes a query's geometry to float32, the resolution of the
// binary wire codec, so a workload produces identical results whether it is
// executed in-process or shipped over the wire.
func q32Query(q query.Query) query.Query {
	q32 := func(v float64) float64 { return float64(float32(v)) }
	r32 := func(r geom.Rect) geom.Rect {
		return geom.Rect{MinX: q32(r.MinX), MinY: q32(r.MinY), MaxX: q32(r.MaxX), MaxY: q32(r.MaxY)}
	}
	q.Window = r32(q.Window)
	q.Center = geom.Point{X: q32(q.Center.X), Y: q32(q.Center.Y)}
	q.JoinWindow = r32(q.JoinWindow)
	q.Dist = q32(q.Dist)
	return q
}

// TestPipelinedClientsMatchSerial is the wire-level sibling of
// TestConcurrentClientsMatchSerial: the same mixed workload, but each client
// talks to a wire.NetServer over a real TCP connection using the binary
// codec, with its queries split across several goroutines pipelining on the
// ONE connection. Responses travel through the full stack — encode, frame,
// out-of-order server completion, correlation — and must still match a
// single-threaded in-process execution query for query. Run under -race
// alongside the in-process test.
func TestPipelinedClientsMatchSerial(t *testing.T) {
	const (
		clients          = 6
		workers          = 4
		queriesPerWorker = 10
	)
	srv, _ := buildServer(t, 80, 2000, Config{Form: AdaptiveForm, InitialD: 2})
	ref, _ := buildServer(t, 80, 2000, Config{Form: AdaptiveForm, InitialD: 2})

	// Serial ground truth, on float32-quantized queries (what the wire
	// carries). No FMR feedback keeps d pinned, so responses are
	// deterministic functions of the query alone.
	workload := func(c, w int) []query.Query {
		qs := mixedQueries(int64(300+c*10+w), queriesPerWorker)
		for i := range qs {
			qs[i] = q32Query(qs[i])
		}
		return qs
	}
	want := make(map[[2]int][][]rtree.ObjectID)
	for c := 0; c < clients; c++ {
		for w := 0; w < workers; w++ {
			qs := workload(c, w)
			ids := make([][]rtree.ObjectID, len(qs))
			for i, q := range qs {
				resp, _ := ref.Execute(&wire.Request{Client: wire.ClientID(c + 1), Q: q})
				ids[i] = objectIDs(resp)
			}
			want[[2]int{c, w}] = ids
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	netSrv := wire.NewNetServer(func(req *wire.Request) (*wire.Response, error) {
		resp, _ := srv.Execute(req)
		return resp, nil
	}, wire.ServeConfig{})
	go func() { _ = netSrv.Serve(ln) }()
	defer netSrv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, clients*workers)
	for c := 0; c < clients; c++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		bc, err := wire.NewBinaryClientConn(conn)
		if err != nil {
			t.Fatal(err)
		}
		defer bc.Close()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(c, w int) {
				defer wg.Done()
				qs := workload(c, w)
				for i, q := range qs {
					resp, err := bc.RoundTrip(&wire.Request{Client: wire.ClientID(c + 1), Q: q})
					if err != nil {
						errs <- fmt.Errorf("client %d worker %d query %d: %w", c, w, i, err)
						return
					}
					got := objectIDs(resp)
					exp := want[[2]int{c, w}][i]
					if len(got) != len(exp) {
						errs <- fmt.Errorf("client %d worker %d query %d: %d objects, want %d", c, w, i, len(got), len(exp))
						return
					}
					for j := range got {
						if got[j] != exp[j] {
							errs <- fmt.Errorf("client %d worker %d query %d: object %d is %d, want %d", c, w, i, j, got[j], exp[j])
							return
						}
					}
				}
			}(c, w)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentFeedbackStaysClamped hammers one client's adaptive state
// from several goroutines; under -race this exercises the shard locking of
// applyFeedback, and the final d must respect [0, MaxD] regardless of the
// interleaving.
func TestConcurrentFeedbackStaysClamped(t *testing.T) {
	srv, _ := buildServer(t, 81, 400, Config{MaxD: 3})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fmr := 0.01
			for i := 0; i < 50; i++ {
				fmr *= 2
				srv.Execute(&wire.Request{
					Client: 7,
					Q:      query.NewKNN(geom.Pt(0.5, 0.5), 2),
					FMR:    fmr,
					HasFMR: true,
				})
			}
		}(g)
	}
	wg.Wait()
	if d := srv.ClientD(7); d < 0 || d > 3 {
		t.Fatalf("d = %d escaped [0, 3]", d)
	}
}

// TestQueriesDuringUpdates runs queries concurrently with index mutations:
// inserts, moves, and deletes all take the write lock, so every query must
// observe a consistent index and a monotonically non-decreasing epoch.
func TestQueriesDuringUpdates(t *testing.T) {
	srv, items := buildServer(t, 82, 1500, Config{})
	var queriers, mutator sync.WaitGroup
	stop := make(chan struct{})

	// Mutator: churn a band of objects.
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		r := rand.New(rand.NewSource(9))
		var lastID rtree.ObjectID
		var lastMBR geom.Rect
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				lastID = rtree.ObjectID(10_000 + i)
				lastMBR = geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01)
				srv.InsertObject(lastID, lastMBR, 500)
			case 1:
				it := items[r.Intn(len(items))]
				to := geom.RectFromCenter(geom.Pt(r.Float64(), r.Float64()), 0.01, 0.01)
				if srv.MoveObject(it.Obj, it.MBR, to) {
					// Move it back so later iterations find it where
					// items says it is.
					srv.MoveObject(it.Obj, to, it.MBR)
				}
			case 2:
				if !srv.DeleteObject(lastID, lastMBR) {
					t.Errorf("delete of freshly inserted object %d failed", lastID)
					return
				}
			}
		}
	}()

	for g := 0; g < 8; g++ {
		queriers.Add(1)
		go func(g int) {
			defer queriers.Done()
			var lastEpoch uint64
			qs := mixedQueries(int64(200+g), 60)
			for i, q := range qs {
				resp, _ := srv.Execute(&wire.Request{Client: wire.ClientID(g + 1), Q: q})
				if resp.Epoch < lastEpoch {
					t.Errorf("client %d query %d: epoch went backwards (%d < %d)", g, i, resp.Epoch, lastEpoch)
					return
				}
				lastEpoch = resp.Epoch
			}
		}(g)
	}

	queriers.Wait()
	close(stop)
	mutator.Wait()
}
