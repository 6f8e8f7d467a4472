package server

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bpt"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// quant32 snaps a coordinate to its nearest float32, the wire's precision:
// windows and moves built from it put edges exactly on values that entries
// also take, so touching-boundary comparisons are exercised.
func quant32(v float64) float64 { return float64(float32(v)) }

// diffRequests builds the differential workload: range windows (random,
// float32-quantized, and anchored exactly on stored entry edges so
// touching-boundary comparisons are exercised), kNN at entry corners, and
// join windows.
func diffRequests(r *rand.Rand, items []rtree.Item, n int) []*wire.Request {
	reqs := make([]*wire.Request, n)
	for i := range reqs {
		req := &wire.Request{Client: wire.ClientID(i%13 + 1)}
		a := items[r.Intn(len(items))].MBR
		switch i % 5 {
		case 0: // random window
			c := geom.Pt(r.Float64(), r.Float64())
			req.Q = query.NewRange(geom.RectFromCenter(c, 0.01+0.1*r.Float64(), 0.01+0.1*r.Float64()))
		case 1: // window edges exactly on a stored entry's edges
			b := items[r.Intn(len(items))].MBR
			req.Q = query.NewRange(geom.R(
				min(a.MinX, b.MinX), min(a.MinY, b.MinY),
				max(a.MaxX, b.MaxX), max(a.MaxY, b.MaxY)))
		case 2: // float32-boundary window: edges are exact float32 values
			c := geom.Pt(r.Float64(), r.Float64())
			w := geom.RectFromCenter(c, 0.05, 0.05)
			req.Q = query.NewRange(geom.R(
				quant32(w.MinX), quant32(w.MinY), quant32(w.MaxX), quant32(w.MaxY)))
		case 3: // kNN centered on a stored entry corner
			req.Q = query.NewKNN(geom.Pt(a.MinX, a.MaxY), 1+r.Intn(8))
		default: // join
			c := geom.Pt(r.Float64(), r.Float64())
			req.Q = query.NewJoin(geom.RectFromCenter(c, 0.04, 0.04), 0.004)
		}
		reqs[i] = req
	}
	return reqs
}

// TestPackedMatchesArenaDifferential is the randomized differential suite of
// the one representation the shard serves from: across update rounds, every
// live node's packed page must equal the reference partition tree bpt.Build
// makes from the same entries — position count, preorder codes, exact MBRs,
// leaf child/obj — and the cut the server emits from the page for a random
// upward-closed expanded set must be the cut the reference computes, in
// every index form. Each round also checks the boundary-window workload's
// range and kNN answers against a linear scan of the live objects.
func TestPackedMatchesArenaDifferential(t *testing.T) {
	srv, items := buildServer(t, 101, 4000, Config{})
	defer srv.Close()
	r := rand.New(rand.NewSource(6))
	live := append([]rtree.Item(nil), items...)
	next := rtree.ObjectID(len(items) + 1)

	for round := 0; round < 4; round++ {
		v := srv.cur.Load()
		v.tree.Nodes(func(n *rtree.Node) bool {
			if len(n.Entries) > 0 {
				checkPageAgainstReference(t, r, n, v.pages.Page(n))
			}
			return !t.Failed()
		})
		if t.Failed() {
			t.Fatalf("round %d: packed page differs from reference", round)
		}
		for i, req := range diffRequests(r, live, 150) {
			checkAgainstScan(t, srv, live, req, round, i)
		}
		if t.Failed() {
			t.Fatalf("round %d: answers differ from the scan", round)
		}
		// Advance the epoch with moves, deletes and inserts so the next round
		// checks rebuilt pages (prewarmed and reader-built), split products
		// and condensed nodes.
		var ops []wire.UpdateOp
		for i := 0; i < 400; i++ {
			j := r.Intn(len(live))
			switch r.Intn(4) {
			case 0:
				ops = append(ops, wire.UpdateOp{Kind: wire.UpdateDelete, Obj: live[j].Obj, From: live[j].MBR})
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			case 1:
				c := geom.Pt(r.Float64(), r.Float64())
				it := rtree.Item{Obj: next, MBR: geom.RectFromCenter(c, 0.01, 0.01)}
				next++
				ops = append(ops, wire.UpdateOp{Kind: wire.UpdateInsert, Obj: it.Obj, To: it.MBR})
				live = append(live, it)
			default:
				from := live[j].MBR
				to := geom.R(
					quant32(from.MinX+0.002), quant32(from.MinY-0.001),
					quant32(from.MaxX+0.002), quant32(from.MaxY-0.001))
				ops = append(ops, wire.UpdateOp{Kind: wire.UpdateMove, Obj: live[j].Obj, From: from, To: to})
				live[j].MBR = to
			}
		}
		for i, ok := range srv.ApplyUpdates(ops, nil) {
			if !ok {
				t.Fatalf("round %d: op %d rejected", round, i)
			}
		}
	}
}

// checkAgainstScan executes one request and compares a range answer with the
// live objects whose MBR meets the window, and a kNN answer with the k
// smallest MinDists over the live objects (distances, not ids: ties may
// break either way). Joins are left to the query engine's own differentials.
func checkAgainstScan(t *testing.T, srv *Server, live []rtree.Item, req *wire.Request, round, i int) {
	t.Helper()
	resp, _ := srv.Execute(req)
	defer srv.ReleaseResponse(resp)
	mbrs := make(map[rtree.ObjectID]geom.Rect, len(live))
	for _, it := range live {
		mbrs[it.Obj] = it.MBR
	}
	for _, o := range resp.Objects {
		if m, ok := mbrs[o.ID]; !ok || m != o.MBR {
			t.Errorf("round %d req %d: object %d with MBR %v is not live", round, i, o.ID, o.MBR)
		}
	}
	switch req.Q.Kind {
	case query.Range:
		var got, want []rtree.ObjectID
		for _, o := range resp.Objects {
			got = append(got, o.ID)
		}
		for _, it := range live {
			if req.Q.Window.Intersects(it.MBR) {
				want = append(want, it.Obj)
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("round %d req %d: range answer %v, scan %v", round, i, got, want)
		}
	case query.KNN:
		var got, want []float64
		for _, o := range resp.Objects {
			got = append(got, geom.MinDist(req.Q.Center, o.MBR))
		}
		for _, it := range live {
			want = append(want, geom.MinDist(req.Q.Center, it.MBR))
		}
		slices.Sort(got)
		slices.Sort(want)
		if want = want[:min(req.Q.K, len(want))]; !slices.Equal(got, want) {
			t.Errorf("round %d req %d: kNN distances %v, scan %v", round, i, got, want)
		}
	}
}

// checkPageAgainstReference compares one packed page with bpt.Build over the
// same entries, position by position and cut by cut.
func checkPageAgainstReference(t *testing.T, r *rand.Rand, n *rtree.Node, pg *rtree.Page) {
	t.Helper()
	ref := bpt.Build(n.ID, n.Entries)
	if pg.Len() != ref.Size() || pg.Len() != 2*len(n.Entries)-1 {
		t.Errorf("node %d: %d positions, reference %d, entries %d", n.ID, pg.Len(), ref.Size(), len(n.Entries))
		return
	}
	// Preorder walk of the reference alongside the page's positions, drawing
	// a random upward-closed expanded set on the way.
	expanded := map[bpt.Code]bool{}
	bits := make([]uint64, (pg.Len()+63)/64)
	pos := int32(0)
	var walk func(pn *bpt.PNode, open bool)
	walk = func(pn *bpt.PNode, open bool) {
		i := pos
		pos++
		if pg.Code(i) != string(pn.Code) || pg.Rect(i) != pn.MBR || pg.IsLeaf(i) != pn.Leaf() {
			t.Errorf("node %d position %d: page (%q %v leaf=%v) vs reference (%q %v leaf=%v)",
				n.ID, i, pg.Code(i), pg.Rect(i), pg.IsLeaf(i), pn.Code, pn.MBR, pn.Leaf())
		}
		if fp, ok := pg.FindCode(string(pn.Code)); !ok || fp != i {
			t.Errorf("node %d: FindCode(%q) = %d,%v, want %d", n.ID, pn.Code, fp, ok, i)
		}
		if pn.Leaf() {
			if pg.ChildID(i) != pn.Entry.Child || pg.ObjID(i) != pn.Entry.Obj {
				t.Errorf("node %d position %d: leaf (%d,%d) vs reference (%d,%d)",
					n.ID, i, pg.ChildID(i), pg.ObjID(i), pn.Entry.Child, pn.Entry.Obj)
			}
			return
		}
		open = open && r.Intn(3) > 0
		if open {
			expanded[pn.Code] = true
			bits[i>>6] |= 1 << (uint(i) & 63)
		}
		walk(pn.Left, open)
		if pg.Right(i) != pos || pg.Parent(pos) != i {
			t.Errorf("node %d position %d: right %d parent %d, want %d/%d", n.ID, i, pg.Right(i), pg.Parent(pos), pos, i)
		}
		walk(pn.Right, open)
	}
	walk(ref.Root, true)

	d := r.Intn(4)
	frontier := ref.Frontier(expanded)
	for form, want := range map[IndexForm]bpt.Cut{
		FullForm:     ref.FullCut(),
		CompactForm:  frontier,
		AdaptiveForm: ref.ExpandCut(frontier, d),
	} {
		got := appendPageCut(nil, pg, bits, form, d)
		if len(got) != len(want) {
			t.Errorf("node %d form %d d=%d: cut of %d elements, reference %d", n.ID, form, d, len(got), len(want))
			continue
		}
		for k, code := range want {
			pn, _ := ref.Node(code)
			wantElem := wire.CutElem{Code: code, MBR: pn.MBR, Super: !pn.Leaf()}
			if pn.Leaf() {
				wantElem.Child, wantElem.Obj = pn.Entry.Child, pn.Entry.Obj
			}
			if got[k] != wantElem {
				t.Errorf("node %d form %d d=%d: element %d is %+v, reference %+v", n.ID, form, d, k, got[k], wantElem)
			}
		}
	}
}

// TestPackedConcurrentPublish races queries against a writer that keeps
// mutating the index, growing the page table and publishing pages into it. Run under -race in CI: the per-(NodeID, Gen)
// validation contract means a query may find any generation in a slot, but
// only ever traverses the page of the content its snapshot pinned.
func TestPackedConcurrentPublish(t *testing.T) {
	srv, items := buildServer(t, 103, 3000, Config{})
	deadline := time.Now().Add(400 * time.Millisecond)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the single writer: move objects, retiring their pages
		defer wg.Done()
		live := append([]rtree.Item(nil), items...)
		r := rand.New(rand.NewSource(7))
		for time.Now().Before(deadline) {
			var ops []wire.UpdateOp
			for i := 0; i < 120; i++ {
				j := r.Intn(len(live))
				from := live[j].MBR
				to := geom.R(
					quant32(from.MinX+0.001), quant32(from.MinY+0.001),
					quant32(from.MaxX+0.001), quant32(from.MaxY+0.001))
				ops = append(ops, wire.UpdateOp{
					Kind: wire.UpdateMove, Obj: live[j].Obj, From: from, To: to})
				live[j].MBR = to
			}
			srv.ApplyUpdates(ops, nil)
		}
	}()

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 11))
			for time.Now().Before(deadline) {
				for _, req := range diffRequests(r, items, 12) {
					resp, _ := srv.Execute(req)
					if resp == nil {
						t.Error("query under concurrent publish returned nil response")
						return
					}
					srv.ReleaseResponse(resp)
				}
			}
		}(g)
	}
	wg.Wait()
}
