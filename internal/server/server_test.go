package server

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

func buildServer(t *testing.T, seed int64, n int, cfg Config) (*Server, []rtree.Item) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	items := make([]rtree.Item, n)
	for i := range items {
		c := geom.Pt(r.Float64(), r.Float64())
		items[i] = rtree.Item{Obj: rtree.ObjectID(i + 1), MBR: geom.RectFromCenter(c, 0.01, 0.01)}
	}
	tree := rtree.BulkLoad(rtree.Params{MaxEntries: 16}, items, 0.7)
	return New(tree, func(rtree.ObjectID) int { return 1000 }, cfg), items
}

func TestFreshRangeMatchesTree(t *testing.T) {
	srv, items := buildServer(t, 61, 500, Config{})
	win := geom.R(0.3, 0.3, 0.7, 0.7)
	resp, info := srv.Execute(&wire.Request{Q: query.NewRange(win)})
	want := 0
	for _, it := range items {
		if it.MBR.Intersects(win) {
			want++
		}
	}
	if len(resp.Objects) != want {
		t.Fatalf("got %d objects, want %d", len(resp.Objects), want)
	}
	if info.VisitedNodes == 0 || info.Engine.Pops == 0 {
		t.Error("no work recorded")
	}
	for _, o := range resp.Objects {
		if !o.Payload || o.Size != 1000 {
			t.Errorf("object rep %+v", o)
		}
	}
}

func TestFreshKNNOrdered(t *testing.T) {
	srv, items := buildServer(t, 62, 500, Config{})
	p := geom.Pt(0.5, 0.5)
	resp, _ := srv.Execute(&wire.Request{Q: query.NewKNN(p, 5)})
	if len(resp.Objects) != 5 {
		t.Fatalf("got %d", len(resp.Objects))
	}
	var all []float64
	for _, it := range items {
		all = append(all, geom.MinDist(p, it.MBR))
	}
	sort.Float64s(all)
	for i, o := range resp.Objects {
		if d := geom.MinDist(p, o.MBR); d != all[i] {
			t.Fatalf("result %d at distance %v, want %v", i, d, all[i])
		}
	}
}

func TestIndexParentsBeforeChildren(t *testing.T) {
	srv, _ := buildServer(t, 63, 1000, Config{Form: CompactForm})
	resp, _ := srv.Execute(&wire.Request{Q: query.NewRange(geom.R(0.4, 0.4, 0.6, 0.6))})
	if len(resp.Index) == 0 {
		t.Fatal("no index shipped")
	}
	seen := map[rtree.NodeID]bool{}
	lastLevel := 1 << 30
	for _, rep := range resp.Index {
		if rep.Level > lastLevel {
			t.Fatal("index not ordered parents-first")
		}
		lastLevel = rep.Level
		seen[rep.ID] = true
	}
	// The root must be among the shipped nodes for a fresh query.
	if !seen[srv.Tree().Root()] {
		t.Error("fresh query index must include the root")
	}
}

func TestFullFormShipsAllEntries(t *testing.T) {
	srv, _ := buildServer(t, 64, 800, Config{Form: FullForm})
	resp, _ := srv.Execute(&wire.Request{Q: query.NewRange(geom.R(0.4, 0.4, 0.6, 0.6))})
	for _, rep := range resp.Index {
		n, ok := srv.Tree().Node(rep.ID)
		if !ok {
			t.Fatalf("index names unknown node %d", rep.ID)
		}
		if len(rep.Elems) != len(n.Entries) {
			t.Fatalf("node %d: %d elems, want full %d", rep.ID, len(rep.Elems), len(n.Entries))
		}
		for _, e := range rep.Elems {
			if e.Super {
				t.Fatal("full form must not contain super entries")
			}
		}
	}
}

func TestCompactFormShipsValidCuts(t *testing.T) {
	srv, _ := buildServer(t, 65, 800, Config{Form: CompactForm})
	resp, _ := srv.Execute(&wire.Request{Q: query.NewKNN(geom.Pt(0.5, 0.5), 3)})
	supers := 0
	for _, rep := range resp.Index {
		n, _ := srv.Tree().Node(rep.ID)
		pt := referenceBuild(n.Entries)
		cut := make(refCut, 0, len(rep.Elems))
		for _, e := range rep.Elems {
			cut = append(cut, e.Code)
			if e.Super {
				supers++
			}
		}
		// Fresh-query expansions start at the root, so cuts are full covers.
		if err := pt.validateCut(cut); err != nil {
			t.Fatalf("node %d cut invalid: %v", rep.ID, err)
		}
	}
	if supers == 0 {
		t.Error("compact form shipped no super entries at all")
	}
}

func TestAdaptiveDRefinesCuts(t *testing.T) {
	sizes := map[int]int{}
	for _, d := range []int{0, 2, 6} {
		srv, _ := buildServer(t, 66, 800, Config{Form: AdaptiveForm, InitialD: d})
		resp, info := srv.Execute(&wire.Request{Client: 1, Q: query.NewKNN(geom.Pt(0.5, 0.5), 3)})
		if info.D != d {
			t.Fatalf("info.D = %d, want %d", info.D, d)
		}
		total := 0
		for _, rep := range resp.Index {
			total += len(rep.Elems)
		}
		sizes[d] = total
	}
	if !(sizes[0] < sizes[2] && sizes[2] <= sizes[6]) {
		t.Errorf("element counts must grow with d: %v", sizes)
	}
}

func TestNoIndexSuppressesIr(t *testing.T) {
	srv, _ := buildServer(t, 67, 500, Config{})
	resp, _ := srv.Execute(&wire.Request{Q: query.NewRange(geom.R(0.4, 0.4, 0.6, 0.6)), NoIndex: true})
	if len(resp.Index) != 0 {
		t.Error("NoIndex request still shipped an index")
	}
}

func TestCachedIDsSkipPayload(t *testing.T) {
	srv, items := buildServer(t, 68, 500, Config{})
	win := geom.R(0.3, 0.3, 0.7, 0.7)
	var inWin []rtree.ObjectID
	for _, it := range items {
		if it.MBR.Intersects(win) {
			inWin = append(inWin, it.Obj)
		}
	}
	if len(inWin) < 3 {
		t.Skip("window too sparse")
	}
	cached := inWin[:2]
	resp, _ := srv.Execute(&wire.Request{Q: query.NewRange(win), CachedIDs: cached, NoIndex: true})
	cachedSet := map[rtree.ObjectID]bool{cached[0]: true, cached[1]: true}
	for _, o := range resp.Objects {
		if cachedSet[o.ID] == o.Payload {
			t.Errorf("object %d payload=%v, cached=%v", o.ID, o.Payload, cachedSet[o.ID])
		}
	}
}

func TestSemWindowsUnionDedup(t *testing.T) {
	srv, items := buildServer(t, 69, 500, Config{})
	w1 := geom.R(0.3, 0.3, 0.55, 0.7)
	w2 := geom.R(0.45, 0.3, 0.7, 0.7) // overlaps w1
	resp, _ := srv.Execute(&wire.Request{
		Q:          query.NewRange(w1.Union(w2)),
		SemWindows: []geom.Rect{w1, w2},
		NoIndex:    true,
	})
	seen := map[rtree.ObjectID]bool{}
	for _, o := range resp.Objects {
		if seen[o.ID] {
			t.Fatalf("object %d returned twice", o.ID)
		}
		seen[o.ID] = true
	}
	want := 0
	for _, it := range items {
		if it.MBR.Intersects(w1) || it.MBR.Intersects(w2) {
			want++
		}
	}
	if len(seen) != want {
		t.Fatalf("got %d objects, want %d", len(seen), want)
	}
}

func TestDeferredObjectsSkipPayload(t *testing.T) {
	srv, items := buildServer(t, 70, 500, Config{})
	p := geom.Pt(0.5, 0.5)
	// Find the true nearest object and pretend the client has it deferred.
	best, bestD := rtree.ObjectID(0), 2.0
	for _, it := range items {
		if d := geom.MinDist(p, it.MBR); d < bestD {
			best, bestD = it.Obj, d
		}
	}
	h := []query.QueuedElem{
		{Key: bestD, Elem: query.Single(query.ObjectRef(best, items[best-1].MBR)), Deferred: true},
		{Key: 0, Elem: query.Single(query.FromEntry(srv.Tree().RootEntry()))},
	}
	resp, _ := srv.Execute(&wire.Request{Q: query.NewKNN(p, 1), H: h})
	if len(resp.Objects) != 1 {
		t.Fatalf("got %d objects", len(resp.Objects))
	}
	if resp.Objects[0].ID != best {
		t.Fatalf("wrong NN: %d vs %d", resp.Objects[0].ID, best)
	}
	if resp.Objects[0].Payload {
		t.Error("deferred object must not ship its payload again")
	}
}

func TestClientDFeedbackClamped(t *testing.T) {
	srv, _ := buildServer(t, 71, 300, Config{MaxD: 2})
	req := func(fmr float64) {
		srv.Execute(&wire.Request{Client: 3, Q: query.NewKNN(geom.Pt(0.5, 0.5), 1), FMR: fmr, HasFMR: true})
	}
	// The rule reacts to relative *changes*: keep the fmr growing.
	fmr := 0.01
	req(fmr)
	for i := 0; i < 10; i++ {
		fmr *= 2
		req(fmr)
	}
	if d := srv.ClientD(3); d != 2 {
		t.Errorf("d = %d, want clamp at 2", d)
	}
	for i := 0; i < 10; i++ {
		fmr /= 2
		req(fmr)
	}
	if d := srv.ClientD(3); d != 0 {
		t.Errorf("d = %d, want clamp at 0", d)
	}
	// A steady fmr leaves d untouched.
	req(fmr)
	req(fmr)
	if d := srv.ClientD(3); d != 0 {
		t.Errorf("steady fmr moved d to %d", d)
	}
}
