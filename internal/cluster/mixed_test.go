package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wire"
)

// funcShard is an in-process shard whose transport binding can be killed
// like a dropped connection: a kill invalidates every outstanding binding
// (they fail from then on, state intact), and only a Redial after restart
// yields a working one — the same generation semantics serverTransport gives
// NewInProcess clusters.
type funcShard struct {
	srv  *server.Server
	gen  atomic.Int64
	down atomic.Bool
}

func (fs *funcShard) bind() wire.Transport {
	g := fs.gen.Load()
	return wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
		if fs.down.Load() || fs.gen.Load() != g {
			return nil, errShardDown
		}
		if len(req.Updates) > 0 {
			return fs.srv.ExecuteUpdates(req), nil
		}
		resp, _ := fs.srv.Execute(req)
		return resp, nil
	})
}

func (fs *funcShard) redial() (Shard, error) {
	if fs.down.Load() {
		return Shard{}, errShardDown
	}
	return Shard{T: fs.bind(), Release: fs.srv.ReleaseResponse}, nil
}

func (fs *funcShard) kill()    { fs.down.Store(true); fs.gen.Add(1) }
func (fs *funcShard) restart() { fs.down.Store(false) }

// TestMixedTransportFailoverCycle routes one cluster over func-transport
// shards and bounces one through a failover cycle. The router must ride it
// out through its retry/redial path with answers and update acks equal to
// the uninterrupted single-node twin throughout.
func TestMixedTransportFailoverCycle(t *testing.T) {
	objs := genObjects(1600, 33)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	single := buildServer(objs, sizes)
	defer single.Close()

	part, err := MakePartition(objs, 4)
	if err != nil {
		t.Fatal(err)
	}
	split := part.Split(objs)
	shards := make([]Shard, 4)

	var fss [4]*funcShard
	for s := range fss {
		if len(split[s]) == 0 {
			t.Fatalf("shard %d empty", s)
		}
		fs := &funcShard{srv: buildServer(split[s], sizes)}
		defer fs.srv.Close()
		fss[s] = fs
		shards[s] = Shard{T: fs.bind(), Release: fs.srv.ReleaseResponse, Redial: fs.redial}
	}

	router, err := New(shards, Config{
		Part:          part,
		Sizer:         func(id rtree.ObjectID) int { return sizes[id] },
		RetryAttempts: 4,
		RetryBackoff:  time.Millisecond,
		FailThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	upd := newUpdateStream(55, objs)
	step := func(phase string) {
		ops := upd.batch(30)
		sResp := single.ExecuteUpdates(&wire.Request{Client: 900, Updates: ops})
		cResp, err := router.RoundTrip(&wire.Request{Client: 900, Updates: ops})
		if err != nil {
			t.Fatalf("%s: updates: %v", phase, err)
		}
		for i := range sResp.UpdateResults {
			if sResp.UpdateResults[i] != cResp.UpdateResults[i] {
				t.Fatalf("%s: op %d ack %v, want %v", phase, i, cResp.UpdateResults[i], sResp.UpdateResults[i])
			}
		}
		// One query aimed into every shard's region plus a full scatter, so
		// every shard answers in every phase.
		for s := 0; s <= 4; s++ {
			var q query.Query
			if s < 4 {
				reg := part.Regions[s]
				q = query.NewRange(geom.RectFromCenter(reg.Center(), reg.Width()/3, reg.Height()/3))
			} else {
				q = query.NewRange(geom.R(0, 0, 1, 1))
			}
			tag := fmt.Sprintf("%s: query shard=%d", phase, s)
			sResp, _ := single.Execute(&wire.Request{Client: wire.ClientID(s + 1), Q: q})
			cResp, err := router.RoundTrip(&wire.Request{Client: wire.ClientID(s + 1), Q: q})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			compareRange(t, tag, sResp, cResp)
		}
	}

	step("baseline")

	// Failover cycle on a func shard: the binding generation turns over.
	fss[1].kill()
	fss[1].restart()
	step("func shard bounced")

	if router.Stats().Snapshot().PerShard[1].Redials == 0 {
		t.Fatal("func shard bounce never redialed")
	}
}
