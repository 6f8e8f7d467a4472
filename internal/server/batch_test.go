package server

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/wire"
)

// batchRequests builds a mixed workload: mostly groupable fresh range
// queries, with kNN and index-less requests sprinkled in so ExecuteBatch
// exercises its solo fallback alongside the shared traversal.
func batchRequests(r *rand.Rand, n int) []*wire.Request {
	reqs := make([]*wire.Request, n)
	for i := range reqs {
		c := geom.Pt(r.Float64(), r.Float64())
		w := geom.RectFromCenter(c, 0.02+0.2*r.Float64(), 0.02+0.2*r.Float64())
		req := &wire.Request{Client: wire.ClientID(i + 1), Q: query.NewRange(w)}
		switch i % 7 {
		case 3:
			req.Q = query.NewKNN(c, 4)
		case 5:
			req.NoIndex = true
		}
		reqs[i] = req
	}
	return reqs
}

// TestExecuteBatchMatchesSolo pins the batch path to the solo path at wire
// precision: every response of ExecuteBatch must encode to the same bytes as
// Execute's answer for the same request, and the execution accounting must
// agree counter for counter.
func TestExecuteBatchMatchesSolo(t *testing.T) {
	for _, form := range []IndexForm{AdaptiveForm, CompactForm} {
		srv, _ := buildServer(t, 91, 3000, Config{Form: form})
		r := rand.New(rand.NewSource(17))
		// More requests than groupLimit, so chunking is exercised too.
		reqs := batchRequests(r, 150)

		solo := make([][]byte, len(reqs))
		soloInfo := make([]ExecInfo, len(reqs))
		for i, req := range reqs {
			resp, info := srv.Execute(req)
			solo[i] = wire.EncodeResponse(nil, resp)
			soloInfo[i] = info
		}

		resps, infos := srv.ExecuteBatch(reqs)
		for i, resp := range resps {
			if resp == nil {
				t.Fatalf("form %d: request %d got no response", form, i)
			}
			if got := wire.EncodeResponse(nil, resp); !bytes.Equal(got, solo[i]) {
				t.Errorf("form %d: request %d: batch response differs from solo", form, i)
			}
			if infos[i] != soloInfo[i] {
				t.Errorf("form %d: request %d: batch info %+v, solo %+v", form, i, infos[i], soloInfo[i])
			}
		}
	}
}

// TestExecuteBatchAfterUpdatesMatchesSolo dirties part of the index so the
// page table holds stale generations past the prewarm budget, which the
// grouped traversal must rebuild on the way exactly as the solo path does,
// and re-checks equivalence.
func TestExecuteBatchAfterUpdatesMatchesSolo(t *testing.T) {
	srv, items := buildServer(t, 92, 2000, Config{})
	defer srv.Close()

	var ops []wire.UpdateOp
	for i := 0; i < 300; i++ {
		it := items[i]
		to := geom.R(it.MBR.MinX+0.003, it.MBR.MinY-0.002, it.MBR.MaxX+0.003, it.MBR.MaxY-0.002)
		ops = append(ops, wire.UpdateOp{Kind: wire.UpdateMove, Obj: it.Obj, From: it.MBR, To: to})
	}
	srv.ApplyUpdates(ops, nil)

	r := rand.New(rand.NewSource(23))
	reqs := batchRequests(r, 80)
	solo := make([][]byte, len(reqs))
	for i, req := range reqs {
		resp, _ := srv.Execute(req)
		solo[i] = wire.EncodeResponse(nil, resp)
	}
	resps, _ := srv.ExecuteBatch(reqs)
	for i, resp := range resps {
		if got := wire.EncodeResponse(nil, resp); !bytes.Equal(got, solo[i]) {
			t.Errorf("request %d: batch response differs from solo after updates", i)
		}
	}
}
