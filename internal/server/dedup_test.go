package server

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// firstArrivals runs req's query through a fresh provider and runner, as
// Execute does, and returns what Execute must answer: every id once, at its
// first arrival, results before the members of pairs.
func firstArrivals(srv *Server, req *wire.Request) (answer []query.Ref, arrivals int) {
	v := srv.cur.Load()
	var p provider
	p.reset(v, srv.cfg.Form != FullForm && !req.NoIndex)
	seed := query.AppendSeedRoot(nil, req.Q, rootRef(v))
	if len(req.H) > 0 {
		seed = appendRekeyed(nil, req.Q, req.H)
	}
	var run query.Runner
	out := run.Run(req.Q, &p, seed)
	seen := map[rtree.ObjectID]bool{}
	add := func(r query.Ref) {
		arrivals++
		if !seen[r.Obj] {
			seen[r.Obj] = true
			answer = append(answer, r)
		}
	}
	for _, r := range out.Results {
		add(r)
	}
	for _, pr := range out.Pairs {
		add(pr[0])
		add(pr[1])
	}
	return answer, arrivals
}

// requireFirstArrivals executes req and requires its objects to be exactly
// firstArrivals' answer, in order and with the first arrival's rectangle,
// and at least one id to have arrived more than once.
func requireFirstArrivals(t *testing.T, srv *Server, req *wire.Request) *wire.Response {
	t.Helper()
	want, arrivals := firstArrivals(srv, req)
	if arrivals == len(want) {
		t.Fatalf("no id arrived twice in %d arrivals; fix the test", arrivals)
	}
	resp, _ := srv.Execute(req)
	if len(resp.Objects) != len(want) {
		t.Fatalf("answered %d objects, want %d distinct of %d arrivals", len(resp.Objects), len(want), arrivals)
	}
	for i, o := range resp.Objects {
		if o.ID != want[i].Obj || o.MBR != want[i].MBR {
			t.Fatalf("object %d is %d %v, first arrival %d %v", i, o.ID, o.MBR, want[i].Obj, want[i].MBR)
		}
	}
	return resp
}

// TestDedupKeepsFirstArrival pins the result dedup on the three ways an id
// reaches the engine more than once.
func TestDedupKeepsFirstArrival(t *testing.T) {
	win := geom.R(0.3, 0.3, 0.7, 0.7)

	t.Run("id inserted twice", func(t *testing.T) {
		r := rand.New(rand.NewSource(81))
		var items []rtree.Item
		for i := 1; i <= 500; i++ {
			c := geom.Pt(r.Float64(), r.Float64())
			items = append(items, rtree.Item{Obj: rtree.ObjectID(i), MBR: geom.RectFromCenter(c, 0.01, 0.01)})
		}
		// Two rectangles for id 7, far apart but both inside the window.
		items[6].MBR = geom.RectFromCenter(geom.Pt(0.35, 0.35), 0.01, 0.01)
		items = append(items, rtree.Item{Obj: 7, MBR: geom.RectFromCenter(geom.Pt(0.65, 0.65), 0.01, 0.01)})
		srv := serverFromItems(items)
		resp := requireFirstArrivals(t, srv, &wire.Request{Q: query.NewRange(win), NoIndex: true})
		n := 0
		for _, o := range resp.Objects {
			if o.ID == 7 {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("id 7 answered %d times", n)
		}
	})

	t.Run("object ref beside its node", func(t *testing.T) {
		srv, items := buildServer(t, 82, 500, Config{})
		var obj rtree.Item
		for _, it := range items {
			if it.MBR.Intersects(win) {
				obj = it
				break
			}
		}
		h := []query.QueuedElem{
			{Elem: query.Single(query.ObjectRef(obj.Obj, obj.MBR))},
			{Elem: query.Single(query.FromEntry(srv.Tree().RootEntry()))},
		}
		resp := requireFirstArrivals(t, srv, &wire.Request{Q: query.NewRange(win), H: h})
		n := 0
		for _, o := range resp.Objects {
			if o.ID == obj.Obj {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("object %d answered %d times", obj.Obj, n)
		}
	})

	t.Run("object in many join pairs", func(t *testing.T) {
		srv, _ := buildServer(t, 83, 500, Config{})
		resp := requireFirstArrivals(t, srv, &wire.Request{Q: query.NewJoin(win, 0.03)})
		inPairs := map[rtree.ObjectID]int{}
		for _, p := range resp.Pairs {
			inPairs[p[0]]++
			inPairs[p[1]]++
		}
		most := 0
		for _, n := range inPairs {
			most = max(most, n)
		}
		if most < 3 || len(inPairs) != len(resp.Objects) {
			t.Fatalf("%d pairs over %d objects (busiest in %d pairs), answered %d objects",
				len(resp.Pairs), len(inPairs), most, len(resp.Objects))
		}
	})
}

// TestCachedIDsTurnOffPayloadExactly requires Payload to be off for exactly
// the answered ids the client listed as cached, whatever else it listed.
func TestCachedIDsTurnOffPayloadExactly(t *testing.T) {
	srv, items := buildServer(t, 84, 500, Config{})
	win := geom.R(0.3, 0.3, 0.7, 0.7)
	cached := map[rtree.ObjectID]bool{}
	var ids []rtree.ObjectID
	for i, it := range items {
		if i%3 == 0 {
			cached[it.Obj] = true
			ids = append(ids, it.Obj)
		}
	}
	ids = append(ids, 100_000, ^rtree.ObjectID(0), ids[0]) // unknown ids and a repeat
	for _, req := range []*wire.Request{
		{Q: query.NewRange(win), CachedIDs: ids},
		{Q: query.NewRange(win)},
	} {
		resp, _ := srv.Execute(req)
		off := 0
		for _, o := range resp.Objects {
			want := req.CachedIDs == nil || !cached[o.ID]
			if o.Payload != want {
				t.Fatalf("object %d: Payload %v, want %v", o.ID, o.Payload, want)
			}
			if !o.Payload {
				off++
			}
		}
		if req.CachedIDs != nil && (off == 0 || off == len(resp.Objects)) {
			t.Fatalf("%d of %d answered objects cached; fix the test", off, len(resp.Objects))
		}
		srv.ReleaseResponse(resp)
	}
}
