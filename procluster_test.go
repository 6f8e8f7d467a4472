package repro

import (
	"errors"
	"maps"
	"math"
	"net"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/wire"
)

// updateReq wraps one insert into a wire-level batched update request.
func updateReq(obj Object) wire.Request {
	return wire.Request{Updates: []wire.UpdateOp{{
		Kind: wire.UpdateInsert, Obj: obj.ID, To: obj.MBR, Size: obj.Size,
	}}}
}

// TestClusterServerOverTCP drives the full facade stack: NewClusterServer
// behind a real NetServer, a pipelined binary client via Dial, and a
// proactive-caching client session — then cross-checks results against a
// one-shard cluster over the same dataset and update history. Both sides go
// through the router; the answers they share are held to a linear scan by
// TestOneShardClusterGrowsAndRecovers.
func TestClusterServerOverTCP(t *testing.T) {
	objects := GenerateNE(5_000, 4)
	single, err := NewClusterServer(objects, ClusterConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	clustered, err := NewClusterServer(objects, ClusterConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer clustered.Close()
	if clustered.Shards() != 4 {
		t.Fatalf("Shards() = %d", clustered.Shards())
	}
	counts := clustered.ShardObjects()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(objects) {
		t.Fatalf("shard objects %v sum to %d, want %d", counts, total, len(objects))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ns := clustered.NetServer(ServeOptions{})
	go func() { _ = ns.Serve(ln) }()
	defer ns.Close()

	transport, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	clCluster, err := NewClient(transport, ClientConfig{ID: 5, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	clSingle, err := NewClient(single.Transport(), ClientConfig{ID: 5, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	sameIDs := func(a, b []ObjectID) bool {
		if len(a) != len(b) {
			return false
		}
		as := append([]ObjectID(nil), a...)
		bs := append([]ObjectID(nil), b...)
		sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
		return true
	}

	check := func(tag string, q Query, exact bool) {
		t.Helper()
		a, err := clSingle.Query(q)
		if err != nil {
			t.Fatalf("%s: single: %v", tag, err)
		}
		b, err := clCluster.Query(q)
		if err != nil {
			t.Fatalf("%s: cluster: %v", tag, err)
		}
		if len(a.Results) != len(b.Results) {
			t.Fatalf("%s: %d results, want %d", tag, len(b.Results), len(a.Results))
		}
		// Result id sets must agree exactly for range and join; kNN keeps
		// count equality only, because the TCP client sees float32 wire
		// geometry while the in-process single node keeps float64, which
		// can reorder near-tie distances.
		if exact && !sameIDs(a.Results, b.Results) {
			t.Fatalf("%s: results differ:\n single %v\ncluster %v", tag, a.Results, b.Results)
		}
	}

	for round := 0; round < 3; round++ {
		c := Pt(0.3+0.2*float64(round), 0.5)
		check("range", NewRange(RectFromCenter(c, 0.05, 0.05)), true)
		check("knn", NewKNN(c, 6), false)
		check("join", NewJoin(RectFromCenter(c, 0.1, 0.1), 0.004), true)
	}

	// Updates through the cluster endpoint: insert, query, delete, query.
	obj := Object{ID: 1 << 21, MBR: RectFromCenter(Pt(0.5, 0.5), 0.001, 0.001), Size: 128}
	req := updateReq(obj)
	resp, err := clustered.Transport().RoundTrip(&req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.UpdateResults) != 1 || !resp.UpdateResults[0] {
		t.Fatalf("cluster insert ack = %v", resp.UpdateResults)
	}

	st := clustered.ClusterStats()
	if st.Requests == 0 || st.SubQueries == 0 {
		t.Fatalf("cluster stats not accumulating: %+v", st)
	}
	if got := clustered.Stats(); got.Requests == 0 {
		t.Fatalf("serving stats not accumulating: %+v", got)
	}
}

// TestOneShardClusterGrowsAndRecovers: the single node is a one-shard
// cluster, so it answers like a linear scan and also gets what every
// cluster has — a WAL to crash-recover from, and an online split that
// grows it and a merge that folds it back.
func TestOneShardClusterGrowsAndRecovers(t *testing.T) {
	objects := GenerateNE(3_000, 6)
	cs, err := NewClusterServer(objects, ClusterConfig{
		Shards: 1, WALDir: t.TempDir(), WALNoSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if live := cs.LiveShards(); len(live) != 1 || live[0] != 0 {
		t.Fatalf("live shards %v, want [0]", live)
	}
	if got := cs.ShardObjects(); !slices.Equal(got, []int{len(objects)}) {
		t.Fatalf("ShardObjects() = %v, want [%d]", got, len(objects))
	}

	// Cold clients take every answer from the server.
	query := func(q Query) Report {
		t.Helper()
		cl, err := NewClient(cs.Transport(), ClientConfig{CacheBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cl.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	sorted := func(ids []ObjectID) []ObjectID {
		ids = slices.Clone(ids)
		slices.Sort(ids)
		return ids
	}
	pairs := 0
	for _, c := range []Point{Pt(0.2, 0.7), Pt(0.5, 0.5), Pt(0.8, 0.3)} {
		w := RectFromCenter(c, 0.2, 0.2)
		var want []ObjectID
		for _, o := range objects {
			if o.MBR.Intersects(w) {
				want = append(want, o.ID)
			}
		}
		if got := sorted(query(NewRange(w)).Results); !slices.Equal(got, sorted(want)) {
			t.Fatalf("range %v: %d results, the scan finds %d", w, len(got), len(want))
		}

		jw, dist := RectFromCenter(c, 0.15, 0.15), 0.01
		wantPairs := map[[2]ObjectID]bool{}
		for i, a := range objects {
			for _, b := range objects[i+1:] {
				if a.MBR.Intersects(jw) && b.MBR.Intersects(jw) && geom.RectMinDist(a.MBR, b.MBR) <= dist {
					wantPairs[[2]ObjectID{min(a.ID, b.ID), max(a.ID, b.ID)}] = true
				}
			}
		}
		gotPairs := map[[2]ObjectID]bool{}
		for _, p := range query(NewJoin(jw, dist)).Pairs {
			gotPairs[[2]ObjectID{min(p[0], p[1]), max(p[0], p[1])}] = true
		}
		if !maps.Equal(gotPairs, wantPairs) {
			t.Fatalf("join %v within %g: %d pairs, the scan finds %d", jw, dist, len(gotPairs), len(wantPairs))
		}
		pairs += len(wantPairs)
	}
	if pairs == 0 {
		t.Fatal("no join window holds a pair: the join check checked nothing")
	}

	if err := cs.SplitShard(0); err != nil {
		t.Fatal(err)
	}
	if live := cs.LiveShards(); !slices.Equal(live, []int{0, 1}) {
		t.Fatalf("live shards after the split %v, want [0 1]", live)
	}
	cs.Kill(0)
	if err := cs.Restart(0); err != nil {
		t.Fatal(err)
	}
	if got := query(NewRange(R(0, 0, 1, 1))).Results; len(got) != len(objects) {
		t.Fatalf("full window after split, kill and restart: %d objects, want %d", len(got), len(objects))
	}
	split := cs.ShardObjects()
	if len(split) != 2 || split[0]+split[1] != len(objects) || split[0] == 0 || split[1] == 0 {
		t.Fatalf("ShardObjects() after the split = %v, want two owners of %d objects", split, len(objects))
	}
	req := updateReq(Object{ID: 1 << 21, MBR: RectFromCenter(Pt(0.5, 0.5), 0.001, 0.001), Size: 64})
	if resp, err := cs.Transport().RoundTrip(&req); err != nil || !slices.Equal(resp.UpdateResults, []bool{true}) {
		t.Fatalf("insert after the split: %v, %v", resp, err)
	}
	grown := cs.ShardObjects()
	if len(grown) != 2 || grown[0]+grown[1] != len(objects)+1 || (grown[0] != split[0]) == (grown[1] != split[1]) {
		t.Fatalf("ShardObjects() after one insert = %v, was %v: want one owner up by one", grown, split)
	}

	sib, ok := cs.SiblingOf(0)
	if !ok {
		t.Fatal("shard 0 has no sibling after the split")
	}
	if err := cs.MergeShards(0, sib); err != nil {
		t.Fatal(err)
	}
	if live := cs.LiveShards(); !slices.Equal(live, []int{0}) {
		t.Fatalf("live shards after the merge %v, want [0]", live)
	}
	if got, want := cs.ShardObjects(), []int{len(objects) + 1, 0}; !slices.Equal(got, want) {
		t.Fatalf("ShardObjects() after the merge = %v, want %v (slot 1 retired)", got, want)
	}
}

// TestUnusableUpdateRectanglesRefused: an insert or move whose target is
// not finite or is inverted is refused and changes nothing, on one shard
// and on two (where a move across the cut travels as a delete and a
// re-insert); valid updates afterwards still apply.
func TestUnusableUpdateRectanglesRefused(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Rect{
		R(nan, 0.5, 0.5, 0.5),
		R(0.6, 0.5, 0.4, 0.5), // MinX > MaxX
		R(0.5, 0.5, inf, 0.6),
		R(-inf, 0.4, 0.5, 0.5),
	}
	for _, shards := range []int{1, 2} {
		objects := GenerateNE(2_000, 3)
		cs, err := NewClusterServer(objects, ClusterConfig{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		apply := func(op wire.UpdateOp) bool {
			t.Helper()
			resp, err := cs.Transport().RoundTrip(&wire.Request{Updates: []wire.UpdateOp{op}})
			if err != nil || len(resp.UpdateResults) != 1 {
				t.Fatalf("%d shards: %+v: %v, %v", shards, op, resp, err)
			}
			return resp.UpdateResults[0]
		}
		total := func() int {
			n := 0
			for _, c := range cs.ShardObjects() {
				n += c
			}
			return n
		}
		next := ObjectID(1 << 21)
		for _, to := range bad {
			if apply(wire.UpdateOp{Kind: wire.UpdateInsert, Obj: next, To: to, Size: 64}) {
				t.Errorf("%d shards: insert to %v acked", shards, to)
			}
			for _, o := range objects[:8] {
				if apply(wire.UpdateOp{Kind: wire.UpdateMove, Obj: o.ID, From: o.MBR, To: to}) {
					t.Errorf("%d shards: move of %d to %v acked", shards, o.ID, to)
				}
			}
			if n := total(); n != len(objects) {
				t.Fatalf("%d shards: %d objects after refusing %v, want %d", shards, n, to, len(objects))
			}
		}
		if !apply(wire.UpdateOp{Kind: wire.UpdateInsert, Obj: next, To: R(0.5, 0.5, 0.5, 0.5), Size: 64}) {
			t.Errorf("%d shards: point insert refused", shards)
		}
		for _, o := range objects[:8] {
			to := RectFromCenter(Pt(1-o.MBR.Center().X, 1-o.MBR.Center().Y), 0.001, 0.001)
			if !apply(wire.UpdateOp{Kind: wire.UpdateMove, Obj: o.ID, From: o.MBR, To: to}) {
				t.Errorf("%d shards: move of %d after the refusals refused", shards, o.ID)
			}
			if !apply(wire.UpdateOp{Kind: wire.UpdateDelete, Obj: o.ID, From: to}) {
				t.Errorf("%d shards: delete of %d after its move refused", shards, o.ID)
			}
		}
		if n, want := total(), len(objects)+1-8; n != want {
			t.Errorf("%d shards: %d objects at the end, want %d", shards, n, want)
		}
		cs.Close()
	}
}

// TestClusterServerRejectsUpdatesWhenDisabled pins the read-only gate on a
// multi-shard cluster: the handler refuses the update before the router
// routes it to a shard.
func TestClusterServerRejectsUpdatesWhenDisabled(t *testing.T) {
	clustered, err := NewClusterServer(GenerateNE(2_000, 1), ClusterConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer clustered.Close()
	clustered.SetRemoteUpdates(false)
	obj := Object{ID: 1 << 21, MBR: RectFromCenter(Pt(0.5, 0.5), 0.001, 0.001), Size: 64}
	req := updateReq(obj)
	if _, err := clustered.Transport().RoundTrip(&req); !errors.Is(err, ErrUpdatesDisabled) {
		t.Fatalf("read-only cluster answered an update with %v, want ErrUpdatesDisabled", err)
	}
}

// TestClusterServerTooManyShards pins the empty-shard guard.
func TestClusterServerTooManyShards(t *testing.T) {
	if _, err := NewClusterServer(GenerateNE(3, 1), ClusterConfig{Shards: 16}); err == nil {
		t.Fatal("16 shards over 3 objects accepted")
	}
}

// TestSizerSparseIDs: build-time sizes come from a table indexed by object
// id when ids are dense and from a map when they are not; both report what
// the map alone used to.
func TestSizerSparseIDs(t *testing.T) {
	t.Run("sparse", func(t *testing.T) {
		objects := []Object{
			{ID: 7, MBR: geom.R(0.1, 0.1, 0.2, 0.2), Size: 700},
			{ID: 4_000_000_000, MBR: geom.R(0.8, 0.8, 0.9, 0.9), Size: 4000},
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cs, err := NewClusterServer(objects, ClusterConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer cs.Close()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Fatalf("a two-object cluster allocated %d MiB: the size table followed the largest id", grew>>20)
		}
		resp, err := cs.Transport().RoundTrip(&wire.Request{Client: 1, Q: query.NewRange(geom.R(0, 0, 1, 1))})
		if err != nil {
			t.Fatal(err)
		}
		got := map[ObjectID]int{}
		for _, o := range resp.Objects {
			got[o.ID] = o.Size
		}
		if len(got) != 2 || got[7] != 700 || got[4_000_000_000] != 4000 {
			t.Fatalf("sizes over the wire = %v, want 7:700 and 4000000000:4000", got)
		}
	})
	t.Run("dense", func(t *testing.T) {
		objects := GenerateNE(3000, 5)
		want := make(map[ObjectID]int, len(objects))
		for _, o := range objects {
			want[o.ID] = o.Size
		}
		sizer := buildSizer(objects)
		for id := ObjectID(0); id <= ObjectID(len(objects))+1; id++ { // 0 and N+1 were never built
			if got := sizer(id); got != want[id] {
				t.Fatalf("size of object %d = %d, the map says %d", id, got, want[id])
			}
		}
		if got := sizer(4_000_000_000); got != 0 {
			t.Fatalf("size of an unknown object = %d, want 0", got)
		}
	})
	t.Run("size beyond int32", func(t *testing.T) {
		objects := []Object{{ID: 1, Size: 1 << 40}, {ID: 2, Size: 5}}
		sizer := buildSizer(objects)
		if sizer(1) != 1<<40 || sizer(2) != 5 || sizer(3) != 0 {
			t.Fatalf("sizes = %d, %d, %d; want 1<<40, 5, 0", sizer(1), sizer(2), sizer(3))
		}
	})
}
