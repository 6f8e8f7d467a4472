package repro

import (
	"net"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/elastic"
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
// single-node server over the same dataset and update history.
func TestClusterServerOverTCP(t *testing.T) {
	objects := GenerateNE(5_000, 4)
	single := NewServer(objects, ServerConfig{})
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
		// count equality only, because the cluster client sees float32
		// wire geometry while the in-process single node keeps float64,
		// which can reorder near-tie distances.
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

// TestClusterServerRejectsUpdatesWhenDisabled mirrors the single-node
// read-only gate.
func TestClusterServerRejectsUpdatesWhenDisabled(t *testing.T) {
	clustered, err := NewClusterServer(GenerateNE(2_000, 1), ClusterConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer clustered.Close()
	clustered.SetRemoteUpdates(false)
	obj := Object{ID: 1 << 21, MBR: RectFromCenter(Pt(0.5, 0.5), 0.001, 0.001), Size: 64}
	req := updateReq(obj)
	if _, err := clustered.Transport().RoundTrip(&req); err == nil {
		t.Fatal("read-only cluster accepted updates")
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

// TestStartRebalancerDerivesThresholds: a config with no split trigger
// takes both thresholds from the build-time shard sizes, so the rebalancer
// starts and leaves a freshly built cluster alone — split above twice the
// mean shard, merge below half of it.
func TestStartRebalancerDerivesThresholds(t *testing.T) {
	cs, err := NewClusterServer(GenerateNE(2_000, 1), ClusterConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	_, stop, err := cs.StartRebalancer(elastic.Config{Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	stop()
	if live := cs.LiveShards(); len(live) != 2 {
		t.Fatalf("live shards %v after idling at build-time sizes, want 2", live)
	}
}
