package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/wire"
)

// recordTour drives a proactive-caching client with a small cache along a
// walk that keeps crossing the boundary of the shard holding (0, 0.5),
// asking mostly joins, and returns the requests it sent, encoded: remainder
// queries whose handed-over queues hold node and super-entry pairs from
// several shards.
func recordTour(t *testing.T, objects []Object, shards, queries int) [][]byte {
	t.Helper()
	cs, err := NewClusterServer(objects, ClusterConfig{Shards: shards})
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
	// Find where y = 0.5 leaves the first shard and walk along that cut.
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

// replayTour sends the recorded requests to a fresh cluster of the given
// shard count the way the serving layer does — encode the response, then
// release it — and returns the encoded responses and the router's counters.
// before runs ahead of every request.
func replayTour(t *testing.T, objects []Object, shards int, sent [][]byte, before func()) ([][]byte, metrics.ClusterSnapshot) {
	t.Helper()
	cs, err := NewClusterServer(objects, ClusterConfig{Shards: shards})
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
	return out, cs.ClusterStats()
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
	sent := recordTour(t, objects, 2, 400)
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
	plain, _ := replayTour(t, objects, 2, sent, func() {})
	collected, _ := replayTour(t, objects, 2, sent, runtime.GC)
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

// TestWaveResponsesUnchanged replays a boundary tour on 2, 4, 8 and 16
// shards and pins a digest of every response byte. A multi-shard wave runs
// its first sub-query on the calling goroutine and the rest on goroutines of
// their own; which one runs where must not change a byte of any answer. The
// 2- and 4-shard digests were recorded when every sub-query of a wave ran on
// its own goroutine; the 8- and 16-shard ones, whose virtual roots have deep
// partition trees, when the router still built the virtual root's tree with
// a pointer tree of its own. An intended change to what the engine answers
// re-records them from the failure message, and says why.
func TestWaveResponsesUnchanged(t *testing.T) {
	objects := GenerateNE(20_000, 4)
	for _, tc := range []struct {
		shards int
		digest string
	}{
		{2, "22578b3df4d1b8de971caf24e685aad3331910ce6765261d7a0d675c3cbfbd47"},
		{4, "ad0e78870035c2f4e4911d1fe3000ecd285f1a74d98a6f8d4a031ff63ae130c9"},
		{8, "7d1cf54fda015dbaa9bd7c59b7cae6f5071afbc95267fa82dc3b02e3ec34ba50"},
		{16, "31c85673e8729d48c88e9d34b2e8ffc11c07889a4204d94485bcf0042acc051a"},
	} {
		sent := recordTour(t, objects, tc.shards, 400)
		resps, st := replayTour(t, objects, tc.shards, sent, func() {})
		if st.SubQueries <= st.Requests {
			t.Fatalf("shards=%d: %d sub-queries for %d requests: the tour never fanned out", tc.shards, st.SubQueries, st.Requests)
		}
		h := sha256.New()
		for _, resp := range resps {
			h.Write(resp)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
			t.Errorf("shards=%d: %d responses hash to %s, want %s", tc.shards, len(sent), got, tc.digest)
		}
	}
}
