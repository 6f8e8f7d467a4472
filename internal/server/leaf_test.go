package server

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// queueOnly hides the server provider's LeafLevel from the engine, so every
// join pair goes through the priority queue.
type queueOnly struct{ query.Provider }

// joinRun is what one join run leaves behind that must not depend on
// leaf-level resolution.
type joinRun struct {
	stats   query.Stats
	visited []rtree.NodeID // first-visit order
	index   []byte         // the encoded supporting index
	pairs   [][2]rtree.ObjectID
}

// runJoin runs req the way Execute does (rekeyed H or a root seed, the
// engine, the supporting index at the client's current d) through the
// server's provider, or through queueOnly when resolve is false.
func runJoin(srv *Server, req *wire.Request, resolve bool) joinRun {
	v := srv.cur.Load()
	st := srv.getExec(v, srv.cfg.Form != FullForm, true)
	defer srv.putExec(st)
	if len(req.H) > 0 {
		st.seed = appendRekeyed(st.seed[:0], req.Q, req.H)
	} else {
		st.seed = query.AppendSeedRoot(st.seed[:0], req.Q, rootRef(v))
	}
	var prov query.Provider = &st.prov
	if !resolve {
		prov = queueOnly{prov}
	}
	out := st.runner.Run(req.Q, prov, st.seed)
	run := joinRun{stats: out.Stats, visited: slices.Clone(st.prov.visited)}
	for _, p := range out.Pairs {
		run.pairs = append(run.pairs, [2]rtree.ObjectID{p[0].Obj, p[1].Obj})
	}
	resp := &wire.Response{}
	buildIndexInto(v, resp, st, srv.cfg.Form, srv.ClientD(req.Client))
	run.index = wire.EncodeResponse(nil, resp)
	return run
}

// leafTestRequests returns big-scans-shaped cold joins (side 0.01 at
// distance 2e-4, centred on random objects) and the remainder joins a
// caching client with a 256 KB cache hands to srv on a walk, encoded as sent.
func leafTestRequests(t *testing.T, srv *Server, ds *dataset.Dataset) [][]byte {
	t.Helper()
	r := rand.New(rand.NewSource(46))
	centre := func() geom.Point { return ds.Objects[r.Intn(len(ds.Objects))].MBR.Center() }
	var sent [][]byte
	for i := 0; i < 150; i++ {
		req := &wire.Request{Client: 1, Q: query.NewJoin(geom.RectFromCenter(centre(), 0.01, 0.01), 2e-4)}
		sent = append(sent, wire.EncodeRequest(nil, req))
	}
	cl := core.NewClient(core.ClientConfig{ID: 2, Root: srv.RootRef(), FMRPeriod: 10},
		core.NewCache(256<<10, core.GRD3, wire.DefaultSizeModel()),
		wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
			if len(req.H) > 0 {
				sent = append(sent, wire.EncodeRequest(nil, req))
			}
			resp, _ := srv.Execute(req)
			return resp, nil
		}))
	pos := centre()
	for i := 0; i < 200; i++ {
		pos = geom.Pt(pos.X+(r.Float64()-0.5)*0.02, pos.Y+(r.Float64()-0.5)*0.02)
		if _, err := cl.Query(query.NewJoin(geom.RectFromCenter(pos, 0.03, 0.03), 5e-4)); err != nil {
			t.Fatalf("client join %d: %v", i, err)
		}
	}
	if len(sent) < 150+40 {
		t.Fatalf("the client handed over only %d join queues", len(sent)-150)
	}
	return sent
}

// TestLeafLevelResolutionMatchesQueue runs every join through the server's
// provider with and without leaf-level resolution, in the adaptive and the
// full index form, and requires the same Stats, the same nodes visited in
// the same order, the same supporting index bytes and the same pair set.
// Only the order of the pairs may differ, and it must somewhere, or the
// depth-first path was never taken.
func TestLeafLevelResolutionMatchesQueue(t *testing.T) {
	ds := dataset.GenerateNE(dataset.Params{N: 100_000, Seed: 6})
	for _, form := range []IndexForm{AdaptiveForm, FullForm} {
		srv := New(ds.BuildTree(rtree.DefaultParams(), 0.7), ds.SizeOf, Config{Form: form})
		sent := leafTestRequests(t, srv, ds)
		reordered, pairs := 0, 0
		for i, body := range sent {
			req, err := wire.DecodeRequest(body)
			if err != nil {
				t.Fatal(err)
			}
			req.HasFMR = false // runJoin reads the client's d without feedback
			got, want := runJoin(srv, req, true), runJoin(srv, req, false)
			if got.stats != want.stats {
				t.Fatalf("form %d request %d (|H|=%d): stats %+v, queue %+v", form, i, len(req.H), got.stats, want.stats)
			}
			if !slices.Equal(got.visited, want.visited) {
				t.Fatalf("form %d request %d: nodes visited %v, queue %v", form, i, got.visited, want.visited)
			}
			if !slices.Equal(got.index, want.index) {
				t.Fatalf("form %d request %d: supporting index differs from the queue's", form, i)
			}
			if !slices.Equal(got.pairs, want.pairs) {
				reordered++
			}
			pairs += len(got.pairs)
			if !slices.Equal(sortedPairs(got.pairs), sortedPairs(want.pairs)) {
				t.Fatalf("form %d request %d: %d pairs, queue %d, sets differ", form, i, len(got.pairs), len(want.pairs))
			}

			resp, info := srv.Execute(req)
			if info.Engine != got.stats || info.VisitedNodes != len(got.visited) {
				t.Fatalf("form %d request %d: Execute reports %+v and %d nodes, the run %+v and %d",
					form, i, info.Engine, info.VisitedNodes, got.stats, len(got.visited))
			}
			if !slices.Equal(sortedPairs(resp.Pairs), sortedPairs(want.pairs)) {
				t.Fatalf("form %d request %d: Execute answers %d pairs, queue %d", form, i, len(resp.Pairs), len(want.pairs))
			}
			srv.ReleaseResponse(resp)
		}
		if reordered == 0 {
			t.Fatalf("form %d: no join's pairs came out of leaf-level resolution", form)
		}
		t.Logf("form %d: %d joins, %d pairs, %d answered in another order", form, len(sent), pairs, reordered)
		srv.Close()
	}
}

// sortedPairs returns a sorted copy of ps; a duplicate stays visible.
func sortedPairs(ps [][2]rtree.ObjectID) [][2]rtree.ObjectID {
	out := slices.Clone(ps)
	slices.SortFunc(out, func(a, b [2]rtree.ObjectID) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return out
}
