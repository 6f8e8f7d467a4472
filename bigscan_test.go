package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/wire"
)

// TestBigScanResponsesUnchanged pins a digest of every response byte of a
// big-scans-shaped stream on two shards: cold ranges of side 0.1, kNN with
// k = 256 and joins of side 0.01 at distance 2e-4, then a caching client with
// a 1 % cache whose joins hand a queue over to the router. It is the
// best-first engine's output on its largest queues, pops and merges. The
// digest was recorded before the engine's queue gained its zero-key lane; an
// intended change to what the engine answers re-records it from the failure
// message, and says why.
func TestBigScanResponsesUnchanged(t *testing.T) {
	const want = "fc5781ef44306332b74de9f97083fe8c385b13f036b0939fdfe797140514fffa"
	objects := GenerateNE(30_000, 6)
	cs, err := NewClusterServer(objects, ClusterConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	h := sha256.New()
	inner := cs.Transport()
	roundTrip := func(req *wire.Request) (*wire.Response, error) {
		resp, err := inner.RoundTrip(req)
		if err == nil {
			h.Write(wire.EncodeResponse(nil, resp))
		}
		return resp, err
	}

	r := rand.New(rand.NewSource(38))
	centre := func() Point { return objects[r.Intn(len(objects))].MBR.Center() }
	kinds := map[query.Kind]int{}
	for i := 0; i < 90; i++ {
		var q Query
		switch c := centre(); i % 3 {
		case 0:
			q = NewRange(RectFromCenter(c, 0.1, 0.1))
		case 1:
			q = NewKNN(c, 256)
		default:
			q = NewJoin(RectFromCenter(c, 0.01, 0.01), 2e-4)
		}
		resp, err := roundTrip(&wire.Request{Client: 1, Q: q})
		if err != nil {
			t.Fatalf("cold %v %d: %v", q.Kind, i, err)
		}
		kinds[q.Kind] += len(resp.Objects) + len(resp.Pairs)
		cs.ReleaseResponse(resp)
	}
	for k, n := range kinds {
		if n == 0 {
			t.Fatalf("cold %v queries returned nothing", k)
		}
	}

	total := 0
	for _, o := range objects {
		total += o.Size
	}
	handed := 0
	cl, err := NewClient(wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
		if req.Q.Kind == query.Join && len(req.H) > 0 {
			handed++
		}
		return roundTrip(req)
	}), ClientConfig{ID: 2, CacheBytes: total / 100})
	if err != nil {
		t.Fatal(err)
	}
	pos := centre()
	for i := 0; i < 40; i++ {
		pos = Pt(pos.X+(r.Float64()-0.5)*0.004, pos.Y+(r.Float64()-0.5)*0.004)
		if _, err := cl.Query(NewJoin(RectFromCenter(pos, 0.01, 0.01), 2e-4)); err != nil {
			t.Fatalf("client join %d: %v", i, err)
		}
	}
	if handed == 0 {
		t.Fatal("the client never handed a join's queue over")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("responses hash to %s, want %s", got, want)
	}
}

// TestJoinResponsesUnchanged pins a digest of every response byte of
// big-scans-shaped joins (side 0.01 at distance 2e-4 on 100 000 NE objects),
// cold and then handed over by a caching client with a 256 KB cache, through
// one- and two-shard clusters in the adaptive and the full index form. The
// digests were recorded before shards resolved leaf-level join pairs
// depth-first, which must not change a byte the router sends: the router
// sorts the merged pairs and objects, so only the pair set and the index
// reach the wire.
func TestJoinResponsesUnchanged(t *testing.T) {
	objects := GenerateNE(100_000, 1)
	for _, tc := range []struct {
		shards int
		form   IndexForm
		digest string
	}{
		{1, AdaptiveForm, "c18bf29b9cad87c7c7fa6cbe21db1a1bbfe8fa5017736cba8dcdf36e7292bb85"},
		{2, AdaptiveForm, "693a4d21e7345e63cea9ca3dd573958849f543c84541b83fea47da422f6e1e5e"},
		{1, FullForm, "47cc80ac19571f963aa49b3e858c615722218b7dae59ccb5c454032322a5f381"},
		{2, FullForm, "df8185b7f57ced31d0a9c0d4d7bc0775bde84eb86fa42424f5486c681a8c7ab3"},
	} {
		cs, err := NewClusterServer(objects, ClusterConfig{Shards: tc.shards, Form: tc.form})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		inner := cs.Transport()
		pairs, handed := 0, 0
		roundTrip := wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
			if len(req.H) > 0 {
				handed++
			}
			resp, err := inner.RoundTrip(req)
			if err == nil {
				pairs += len(resp.Pairs)
				h.Write(wire.EncodeResponse(nil, resp))
			}
			return resp, err
		})
		r := rand.New(rand.NewSource(46))
		centre := func() Point { return objects[r.Intn(len(objects))].MBR.Center() }
		for i := 0; i < 150; i++ {
			resp, err := roundTrip(&wire.Request{Client: 1, Q: NewJoin(RectFromCenter(centre(), 0.01, 0.01), 2e-4)})
			if err != nil {
				t.Fatalf("cold join %d: %v", i, err)
			}
			cs.ReleaseResponse(resp)
		}
		cl, err := NewClient(roundTrip, ClientConfig{ID: 2, CacheBytes: 256 << 10})
		if err != nil {
			t.Fatal(err)
		}
		pos := centre()
		for i := 0; i < 300; i++ {
			pos = Pt(pos.X+(r.Float64()-0.5)*0.02, pos.Y+(r.Float64()-0.5)*0.02)
			if _, err := cl.Query(NewJoin(RectFromCenter(pos, 0.03, 0.03), 5e-4)); err != nil {
				t.Fatalf("client join %d: %v", i, err)
			}
		}
		cs.Close()
		if handed < 40 || pairs == 0 {
			t.Fatalf("shards=%d form=%d: %d handed-over joins and %d pairs; fix the test", tc.shards, tc.form, handed, pairs)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
			t.Errorf("shards=%d form=%d: responses hash to %s, want %s", tc.shards, tc.form, got, tc.digest)
		}
	}
}
