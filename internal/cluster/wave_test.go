package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
)

// TestIssueWaveAnswersAndReleases runs 2- and 4-item waves through issueWave
// over stub shards that answer each request with a value of their own.
// Every item must carry its own shard's answer to its own request, whether
// it ran inline (items[0]) or on a goroutine. When one shard fails, wherever
// its item sits, the error names it and every answer that did arrive is
// released exactly once.
func TestIssueWaveAnswersAndReleases(t *testing.T) {
	objs := genObjects(2000, 13)
	boom := errors.New("boom")
	for _, n := range []int{2, 4} {
		part, err := MakePartition(objs, n)
		if err != nil {
			t.Fatal(err)
		}
		for fail := -1; fail < n; fail++ {
			t.Run(fmt.Sprintf("shards=%d/fail=%d", n, fail), func(t *testing.T) {
				released := make([]atomic.Int64, n)
				shards := make([]Shard, n)
				for s := range shards {
					shards[s] = Shard{
						T: wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
							if s == fail && !req.Catalog {
								return nil, boom
							}
							return &wire.Response{Epoch: 1000*uint64(s) + req.Epoch}, nil
						}),
						Release: func(*wire.Response) { released[s].Add(1) },
					}
				}
				router, err := New(shards, Config{Part: part})
				if err != nil {
					t.Fatal(err)
				}
				for s := range released {
					released[s].Store(0) // New's catalog round trips
				}
				// Items in reverse shard order, so the inline item is the
				// last shard's.
				items := make([]waveItem, n)
				for i := range items {
					items[i] = waveItem{shard: n - 1 - i, task: -1, req: wire.Request{Epoch: uint64(i + 1)}}
				}
				err = router.issueWave(items)
				if fail < 0 {
					if err != nil {
						t.Fatal(err)
					}
					for i, it := range items {
						if want := 1000*uint64(it.shard) + uint64(i+1); it.resp == nil || it.resp.Epoch != want {
							t.Errorf("item %d (shard %d): resp %+v, want epoch %d", i, it.shard, it.resp, want)
						}
					}
					for s := range released {
						if got := released[s].Load(); got != 0 {
							t.Errorf("shard %d: %d responses released by a successful wave", s, got)
						}
					}
					return
				}
				if !errors.Is(err, boom) || !strings.Contains(err.Error(), fmt.Sprintf("shard %d:", fail)) {
					t.Fatalf("err = %v, want shard %d's boom", err, fail)
				}
				for i, it := range items {
					if it.resp != nil {
						t.Errorf("item %d (shard %d) still holds a response after the wave failed", i, it.shard)
					}
				}
				for s := range released {
					want := int64(1)
					if s == fail {
						want = 0
					}
					if got := released[s].Load(); got != want {
						t.Errorf("shard %d: released %d responses, want %d", s, got, want)
					}
				}
			})
		}
	}
}
