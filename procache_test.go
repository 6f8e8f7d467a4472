package repro

import (
	"net"
	"testing"

	"repro/internal/wire"
)

func testObjects() []Object {
	return GenerateNE(3000, 11)
}

func TestFacadeEndToEnd(t *testing.T) {
	srv := NewServer(testObjects(), ServerConfig{})
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
	srv := NewServer(testObjects()[:100], ServerConfig{})
	if _, err := NewClient(srv.Transport(), ClientConfig{}); err == nil {
		t.Error("missing CacheBytes must error")
	}
}

func TestFacadeTCP(t *testing.T) {
	srv := NewServer(testObjects()[:500], ServerConfig{})
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
// stack — binary codec, pipelined server, single-writer queue — and checks
// read-your-writes from a second connection, plus the read-only rejection
// path.
func TestWireUpdatesOverTCP(t *testing.T) {
	srv := NewServer(testObjects()[:500], ServerConfig{})
	defer srv.Close()
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
	if resp.Epoch != 1 {
		t.Fatalf("update ack epoch = %d", resp.Epoch)
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

	// Read-only mode rejects the update but keeps serving queries.
	srv.SetRemoteUpdates(false)
	if _, err := up.RoundTrip(&wire.Request{Updates: []UpdateOp{
		{Kind: UpdateDelete, Obj: 77_001, From: target},
	}}); err == nil {
		t.Fatal("read-only server accepted an update")
	}
	if _, err := reader.RoundTrip(&wire.Request{Client: 2, Q: NewKNN(Pt(0.91, 0.91), 1)}); err != nil {
		t.Fatalf("query after rejected update: %v", err)
	}
}

func TestIndexStats(t *testing.T) {
	srv := NewServer(testObjects(), ServerConfig{})
	st := srv.IndexStats()
	if st.Objects != 3000 || st.Nodes == 0 {
		t.Errorf("stats = %+v", st)
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
	srv := NewServer(objects, ServerConfig{})
	cl, err := NewClient(srv.Transport(), ClientConfig{CacheBytes: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}

	// Warm the client over an area.
	center := Pt(0.5, 0.5)
	if _, err := cl.Query(NewRange(RectFromCenter(center, 0.2, 0.2))); err != nil {
		t.Fatal(err)
	}

	// Mutate the live index.
	added := Object{ID: 5001, MBR: RectFromCenter(center, 0.001, 0.001), Size: 777}
	srv.InsertObject(added)
	if srv.Epoch() == 0 {
		t.Fatal("epoch did not advance")
	}
	if !srv.MoveObject(added.ID, RectFromCenter(Pt(0.51, 0.51), 0.001, 0.001)) {
		t.Fatal("move failed")
	}
	if srv.MoveObject(9999, RectFromCenter(center, 0.1, 0.1)) {
		t.Error("moved a ghost")
	}

	// The heartbeat prunes whatever the updates touched.
	if _, err := cl.Sync(); err != nil {
		t.Fatal(err)
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
	if !srv.DeleteObject(added.ID) {
		t.Fatal("delete failed")
	}
	if srv.DeleteObject(added.ID) {
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
