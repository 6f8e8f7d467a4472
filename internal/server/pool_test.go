package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// poolTestRequests builds an interleaved mix of range, kNN, and join
// requests, several distinct clients, some resuming from a handed-over H.
func poolTestRequests(srv *Server, n int, seed int64) []*wire.Request {
	r := rand.New(rand.NewSource(seed))
	reqs := make([]*wire.Request, n)
	for i := range reqs {
		p := geom.Pt(r.Float64(), r.Float64())
		var q query.Query
		switch i % 3 {
		case 0:
			q = query.NewRange(geom.RectFromCenter(p, 0.05, 0.05))
		case 1:
			q = query.NewKNN(p, 1+i%7)
		default:
			q = query.NewJoin(geom.RectFromCenter(p, 0.03, 0.03), 0.002)
		}
		req := &wire.Request{Client: wire.ClientID(1 + i%5), Q: q}
		if i%4 == 3 {
			// Resume from a root-seeded H: exercises the rekey buffer.
			req.H = query.AppendSeedRoot(nil, q, srv.RootRef())
		}
		reqs[i] = req
	}
	return reqs
}

// encodeExecute runs one request and returns the canonical encoded bytes,
// optionally recycling the response (the pooled serving path).
func encodeExecute(srv *Server, req *wire.Request, release bool) []byte {
	resp, _ := srv.Execute(req)
	out := wire.EncodeResponse(nil, resp)
	if release {
		srv.ReleaseResponse(resp)
	}
	return out
}

// TestPooledStateMatchesFresh guards against scratch-buffer leakage between
// requests: 8 goroutines hammer one server with interleaved range/kNN/join
// requests (pooled exec state and released responses, so pool reuse is
// constant), and every response must be byte-identical to the one a
// fresh-state server produces for the same request.
func TestPooledStateMatchesFresh(t *testing.T) {
	const nReq = 240
	srv, items := buildServer(t, 77, 2000, Config{})
	reqs := poolTestRequests(srv, nReq, 78)

	// Reference bytes from a server whose pools are never reused: a brand
	// new server per request, over the identical dataset.
	want := make([][]byte, nReq)
	for i, req := range reqs {
		want[i] = encodeExecute(serverFromItems(items), req, false)
	}

	const goroutines = 8
	const rounds = 4 // revisit every request so state reuse is guaranteed
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i := g; i < nReq; i += goroutines {
					got := encodeExecute(srv, reqs[(i+round*3)%nReq], true)
					if !bytes.Equal(got, want[(i+round*3)%nReq]) {
						select {
						case errCh <- fmt.Errorf("goroutine %d round %d: response %d differs from fresh-state server", g, round, (i+round*3)%nReq):
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// serverFromItems stands up a fresh server over prebuilt items, with the
// same tree shape as buildServer.
func serverFromItems(items []rtree.Item) *Server {
	tree := rtree.BulkLoad(rtree.Params{MaxEntries: 16}, items, 0.7)
	return New(tree, func(rtree.ObjectID) int { return 1000 }, Config{})
}
