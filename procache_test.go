package repro

import (
	"errors"
	"net"
	"testing"

	"repro/internal/wire"
)

func testObjects() []Object {
	return GenerateNE(3000, 11)
}

// oneShard stands up the single node: a one-shard cluster, closed when the
// test ends.
func oneShard(t *testing.T, objects []Object) *ClusterServer {
	t.Helper()
	srv, err := NewClusterServer(objects, ClusterConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func TestFacadeEndToEnd(t *testing.T) {
	srv := oneShard(t, testObjects())
	cl, err := NewClient(srv.Transport(), ClientConfig{CacheBytes: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	center := Pt(0.5, 0.5)
	rep, err := cl.Query(NewKNN(center, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	if cl.CacheUsed() == 0 || cl.CacheIndexBytes() == 0 {
		t.Error("cache did not populate")
	}
	// Second identical query is free.
	rep2, err := cl.Query(NewKNN(center, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.LocalOnly {
		t.Error("repeat query should be local")
	}
	// Cross-type reuse.
	rrep, err := cl.Query(NewRange(RectFromCenter(center, 0.02, 0.02)))
	if err != nil {
		t.Fatal(err)
	}
	_ = rrep

	jrep, err := cl.Query(NewJoin(RectFromCenter(center, 0.05, 0.05), 0.01))
	if err != nil {
		t.Fatal(err)
	}
	_ = jrep
}

func TestFacadeValidation(t *testing.T) {
	srv := oneShard(t, testObjects()[:100])
	if _, err := NewClient(srv.Transport(), ClientConfig{}); err == nil {
		t.Error("missing CacheBytes must error")
	}
}

func TestFacadeTCP(t *testing.T) {
	srv := oneShard(t, testObjects()[:500])
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.Serve(ln) }()

	tr, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(tr, ClientConfig{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Query(NewKNN(Pt(0.3, 0.3), 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("tcp knn got %d results", len(rep.Results))
	}
}

// TestWireUpdatesOverTCP ships a batched update request through the full
// stack — binary codec, pipelined server, router, single-writer queue — and
// checks read-your-writes from a second connection, plus the read-only gate
// over TCP and in process.
func TestWireUpdatesOverTCP(t *testing.T) {
	srv := oneShard(t, testObjects()[:500])
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.Serve(ln) }()

	up, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	q32 := func(v float64) float64 { return float64(float32(v)) }
	target := R(q32(0.91), q32(0.91), q32(0.915), q32(0.915))
	resp, err := up.RoundTrip(&wire.Request{Updates: []UpdateOp{
		{Kind: UpdateInsert, Obj: 77_001, To: target, Size: 512},
		{Kind: UpdateDelete, Obj: 999_999, From: R(0, 0, 0.1, 0.1)}, // a miss
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.UpdateResults) != 2 || !resp.UpdateResults[0] || resp.UpdateResults[1] {
		t.Fatalf("update results = %v", resp.UpdateResults)
	}
	// The ack carries the updating client's virtual epoch: the router
	// registers the first shard-epoch vector a client is handed as 1.
	if resp.Epoch != 1 {
		t.Fatalf("update ack epoch = %d, want virtual epoch 1", resp.Epoch)
	}

	// A different connection sees the insert immediately.
	reader, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	qresp, err := reader.RoundTrip(&wire.Request{Client: 2, Q: NewKNN(Pt(0.91, 0.91), 1), NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(qresp.Objects) != 1 || qresp.Objects[0].ID != 77_001 || qresp.Objects[0].Size != 512 {
		t.Fatalf("inserted object not served over the wire: %+v", qresp.Objects)
	}

	// Read-only mode rejects the update, over the wire and in process, but
	// keeps serving queries.
	srv.SetRemoteUpdates(false)
	del := []UpdateOp{{Kind: UpdateDelete, Obj: 77_001, From: target}}
	if _, err := up.RoundTrip(&wire.Request{Updates: del}); err == nil {
		t.Fatal("read-only server accepted an update over TCP")
	}
	if _, err := srv.Transport().RoundTrip(&wire.Request{Updates: del}); !errors.Is(err, ErrUpdatesDisabled) {
		t.Fatalf("read-only server answered an in-process update with %v, want ErrUpdatesDisabled", err)
	}
	if _, err := reader.RoundTrip(&wire.Request{Client: 2, Q: NewKNN(Pt(0.91, 0.91), 1)}); err != nil {
		t.Fatalf("query after rejected update: %v", err)
	}
}

func TestGenerators(t *testing.T) {
	ne := GenerateNE(100, 1)
	rd := GenerateRD(100, 1)
	if len(ne) != 100 || len(rd) != 100 {
		t.Error("generator cardinalities")
	}
}

func TestFacadeUpdatesAndSync(t *testing.T) {
	objects := testObjects()[:800]
	srv := oneShard(t, objects)
	cl, err := NewClient(srv.Transport(), ClientConfig{CacheBytes: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}

	// An updater client ships one wire operation per request and quotes the
	// virtual epoch its last ack carried.
	var epoch uint64
	update := func(op UpdateOp) bool {
		t.Helper()
		resp, err := srv.Transport().RoundTrip(&wire.Request{Client: 9, Epoch: epoch, Updates: []UpdateOp{op}})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.UpdateResults) != 1 {
			t.Fatalf("update acks = %v, want one", resp.UpdateResults)
		}
		epoch = resp.Epoch
		return resp.UpdateResults[0]
	}

	// Warm the client over an area.
	center := Pt(0.5, 0.5)
	if _, err := cl.Query(NewRange(RectFromCenter(center, 0.2, 0.2))); err != nil {
		t.Fatal(err)
	}

	// Mutate the live index.
	added := Object{ID: 5001, MBR: RectFromCenter(center, 0.001, 0.001), Size: 777}
	if !update(UpdateOp{Kind: UpdateInsert, Obj: added.ID, To: added.MBR, Size: added.Size}) {
		t.Fatal("insert failed")
	}
	if epoch == 0 {
		t.Fatal("epoch did not advance")
	}
	moved := RectFromCenter(Pt(0.51, 0.51), 0.001, 0.001)
	if !update(UpdateOp{Kind: UpdateMove, Obj: added.ID, From: added.MBR, To: moved}) {
		t.Fatal("move failed")
	}
	if update(UpdateOp{Kind: UpdateMove, Obj: 9999, From: RectFromCenter(center, 0.1, 0.1), To: moved}) {
		t.Error("moved a ghost")
	}

	// The heartbeat prunes whatever the updates touched.
	if dropped, err := cl.Sync(); err != nil {
		t.Fatal(err)
	} else if dropped == 0 {
		t.Error("Sync after updates in the warm area dropped nothing")
	}

	// The new object is findable afterwards.
	rep, err := cl.Query(NewKNN(Pt(0.51, 0.51), 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0] != added.ID {
		t.Errorf("nearest after insert = %v, want [5001]", rep.Results)
	}

	// Deleting it makes it vanish — after the client hears about it.
	// (Purely local answers between contacts may be stale by design; the
	// heartbeat closes the window.)
	del := UpdateOp{Kind: UpdateDelete, Obj: added.ID, From: moved}
	if !update(del) {
		t.Fatal("delete failed")
	}
	if update(del) {
		t.Error("double delete succeeded")
	}
	if _, err := cl.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err = cl.Query(NewKNN(Pt(0.51, 0.51), 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) == 1 && rep.Results[0] == added.ID {
		t.Error("deleted object still returned")
	}
}
