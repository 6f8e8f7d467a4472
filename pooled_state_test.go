package repro

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/query"
	"repro/internal/wire"
)

// recordTour drives a proactive-caching client with a small cache along a
// walk that keeps crossing the 2-shard boundary, asking mostly joins, and
// returns the requests it sent, encoded: remainder queries whose handed-over
// queues hold node and super-entry pairs from both shards.
func recordTour(t *testing.T, objects []Object, queries int) [][]byte {
	t.Helper()
	cs, err := NewClusterServer(objects, ClusterConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	var sent [][]byte
	inner := cs.Transport()
	cl, err := NewClient(wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
		sent = append(sent, wire.EncodeRequest(nil, req))
		return inner.RoundTrip(req)
	}), ClientConfig{ID: 3, CacheBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Find the cut plane between the two shards and walk along it.
	part := cs.cluster.Router.Partition()
	lo, hi := 0.0, 1.0
	for hi-lo > 1e-6 {
		if mid := (lo + hi) / 2; part.Locate(Pt(mid, 0.5)) == part.Locate(Pt(0, 0.5)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	r := rand.New(rand.NewSource(12))
	y := 0.5
	for i := 0; i < queries; i++ {
		y += (r.Float64() - 0.5) * 0.02
		pos := Pt(lo+(r.Float64()-0.5)*0.02, y)
		var q Query
		switch i % 4 {
		case 0:
			q = NewRange(RectFromCenter(pos, 0.02, 0.02))
		case 1:
			q = NewKNN(pos, 1+r.Intn(5))
		default:
			q = NewJoin(RectFromCenter(pos, 0.03, 0.03), 0.0005)
		}
		if _, err := cl.Query(q); err != nil {
			t.Fatalf("tour query %d: %v", i, err)
		}
	}
	return sent
}

// replayTour sends the recorded requests to a fresh 2-shard cluster the way
// the serving layer does — encode the response, then release it — and
// returns the encoded responses. before runs ahead of every request.
func replayTour(t *testing.T, objects []Object, sent [][]byte, before func()) [][]byte {
	t.Helper()
	cs, err := NewClusterServer(objects, ClusterConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	out := make([][]byte, len(sent))
	for i, body := range sent {
		req, err := wire.DecodeRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		before()
		resp, err := cs.Transport().RoundTrip(req)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		out[i] = wire.EncodeResponse(nil, resp)
		cs.ReleaseResponse(resp)
	}
	return out
}

// TestResponsesIndependentOfPooledState pins that an answer is a function of
// the request history and the index alone. A garbage collection empties
// every sync.Pool the shards and the router keep (execution state,
// responses, route state) and shifts goroutine scheduling, so replaying one
// tour with a collection forced before every request must produce the bytes
// the undisturbed replay does.
//
// The joins report a false-miss rate that swings the adaptive d on every
// request: what used to differ between replays was the cut a cross-shard
// join's band scan shipped, refined at the d from before or after the
// feedback its sibling sub-query carried to the same shard, whichever
// goroutine the scheduler ran first.
func TestResponsesIndependentOfPooledState(t *testing.T) {
	objects := GenerateNE(20_000, 4)
	sent := recordTour(t, objects, 400)
	joins := 0
	for i, body := range sent {
		req, err := wire.DecodeRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		if req.Q.Kind == query.Join && len(req.H) > 0 {
			req.HasFMR, req.FMR = true, []float64{0.05, 0.5}[joins%2]
			joins++
			sent[i] = wire.EncodeRequest(nil, req)
		}
	}
	if joins < 20 {
		t.Fatalf("tour has only %d joins with a handed-over queue", joins)
	}
	plain := replayTour(t, objects, sent, func() {})
	collected := replayTour(t, objects, sent, runtime.GC)
	differ := 0
	for i := range plain {
		if !bytes.Equal(plain[i], collected[i]) {
			if differ == 0 {
				req, _ := wire.DecodeRequest(sent[i])
				t.Errorf("request %d (%v, |H|=%d): response differs between replays", i, req.Q.Kind, len(req.H))
			}
			differ++
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d responses differ between a plain replay and one with a GC before every request", differ, len(plain))
	}
}
