package elastic_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// TestRebalancerOverInProcess drives the real cluster: skewed growth in one
// corner pushes that shard over the object trigger and the rebalancer splits
// it; deleting the hotspot cools the pair and the rebalancer merges it back.
func TestRebalancerOverInProcess(t *testing.T) {
	objs := dataset.GenerateNE(dataset.Params{N: 1200, Seed: 9}).Objects
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	p, err := cluster.NewInProcess(objs, cluster.InProcessConfig{
		Shards: 2,
		Tree:   rtree.Params{MaxEntries: 16},
		Sizer:  func(id rtree.ObjectID) int { return sizes[id] },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var events []elastic.Event
	rb, err := elastic.New(p, elastic.Config{
		SplitObjects: 1500,
		MergeObjects: 700,
		Cooldown:     time.Millisecond,
		OnEvent:      func(ev elastic.Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(10000, 0)
	step := func() {
		t.Helper()
		now = now.Add(time.Second)
		if err := rb.Step(now); err != nil {
			t.Fatal(err)
		}
	}

	step() // below every trigger: nothing happens
	if len(p.LiveShards()) != 2 {
		t.Fatalf("premature topology change: %v", p.LiveShards())
	}

	// Skewed growth: 1200 inserts into one corner. Whichever shard owns the
	// corner crosses the 1500-object trigger. No split has happened yet,
	// so the router still routes by the build's deterministic partition.
	part, err := cluster.MakePartition(objs, 2)
	if err != nil {
		t.Fatal(err)
	}
	hot := part.Locate(geom.Pt(0.05, 0.05))
	var hotIDs []rtree.ObjectID
	for i := 0; i < 1200; i += 100 {
		ops := make([]wire.UpdateOp, 0, 100)
		for j := 0; j < 100; j++ {
			id := rtree.ObjectID(1<<22 + i + j)
			rc := geom.RectFromCenter(geom.Pt(0.02+0.0001*float64(i+j), 0.02), 0.001, 0.001)
			ops = append(ops, wire.UpdateOp{Kind: wire.UpdateInsert, Obj: id, To: rc, Size: 64})
			hotIDs = append(hotIDs, id)
		}
		if _, err := p.Router.RoundTrip(&wire.Request{Client: 1, Updates: ops}); err != nil {
			t.Fatal(err)
		}
	}

	step()
	if len(p.LiveShards()) != 3 {
		t.Fatalf("no split after skewed growth: live=%v events=%+v", p.LiveShards(), events)
	}
	if len(events) != 1 || events[0].Kind != "split" || events[0].Shard != hot {
		t.Fatalf("events = %+v, want one split of shard %d", events, hot)
	}

	// Query routing still correct after the split.
	resp, err := p.Router.RoundTrip(&wire.Request{Client: 2, Q: query.NewRange(geom.R(-1, -1, 2, 2)), NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Objects) != 1200+1200 {
		t.Fatalf("full range sees %d objects, want %d", len(resp.Objects), 2400)
	}

	// Cool the hotspot down: delete the skewed inserts; the split pair's
	// combined count falls under MergeObjects and the pair folds back.
	for i := 0; i < len(hotIDs); i += 100 {
		ops := make([]wire.UpdateOp, 0, 100)
		for _, id := range hotIDs[i : i+100] {
			rc := geom.RectFromCenter(geom.Pt(0.02+0.0001*float64(int(id)-1<<22), 0.02), 0.001, 0.001)
			ops = append(ops, wire.UpdateOp{Kind: wire.UpdateDelete, Obj: id, From: rc})
		}
		resp, err := p.Router.RoundTrip(&wire.Request{Client: 1, Updates: ops})
		if err != nil {
			t.Fatal(err)
		}
		for j, ok := range resp.UpdateResults {
			if !ok {
				t.Fatalf("delete %d of chunk at %d missed", j, i)
			}
		}
	}

	step()
	if len(p.LiveShards()) != 2 {
		t.Fatalf("no merge after cooldown: live=%v events=%+v", p.LiveShards(), events)
	}
	last := events[len(events)-1]
	if last.Kind != "merge" || last.Err != nil {
		t.Fatalf("last event = %+v, want clean merge", last)
	}

	resp, err = p.Router.RoundTrip(&wire.Request{Client: 2, Q: query.NewRange(geom.R(-1, -1, 2, 2)), NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Objects) != 1200 {
		t.Fatalf("full range sees %d objects after merge, want 1200", len(resp.Objects))
	}
}
