package cluster

import (
	"fmt"
	"net"
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

func (fs *funcShard) redial() (wire.Transport, error) {
	if fs.down.Load() {
		return nil, errShardDown
	}
	return fs.bind(), nil
}

func (fs *funcShard) kill()    { fs.down.Store(true); fs.gen.Add(1) }
func (fs *funcShard) restart() { fs.down.Store(false) }

// quantRect rounds a rectangle to the wire's float32 precision.
func quantRect(r geom.Rect) geom.Rect {
	q := func(v float64) float64 { return float64(float32(v)) }
	return geom.R(q(r.MinX), q(r.MinY), q(r.MaxX), q(r.MaxY))
}

// TestMixedTransportFailoverCycle routes one cluster over heterogeneous
// shard transports — three func-transport shards and one shard served over
// real TCP (wire.NetServer on loopback; every coordinate in the test is
// quantised to the wire's float32 up front, so results compare bit-for-bit
// against the in-process single node) — and bounces each transport kind
// through a failover cycle. The router must ride both out through its
// retry/redial path with answers and update acks equal to the uninterrupted
// single-node twin throughout.
func TestMixedTransportFailoverCycle(t *testing.T) {
	objs := genObjects(1600, 33)
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for i, o := range objs {
		objs[i].MBR = quantRect(o.MBR)
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

	var fss [3]*funcShard
	for s := 0; s < 3; s++ {
		if len(split[s]) == 0 {
			t.Fatalf("shard %d empty", s)
		}
		fs := &funcShard{srv: buildServer(split[s], sizes)}
		defer fs.srv.Close()
		fss[s] = fs
		shards[s] = Shard{T: fs.bind(), Release: fs.srv.ReleaseResponse, Redial: fs.redial}
	}

	// Shard 3 is a real network process: a NetServer over loopback whose
	// bounce closes the listener and every connection, then rebinds the same
	// shard state on a fresh port — the router's redial must chase the move.
	sh3 := buildServer(split[3], sizes)
	defer sh3.Close()
	var addr atomic.Value
	startNS := func() *wire.NetServer {
		ns := wire.NewNetServer(func(req *wire.Request) (*wire.Response, error) {
			if len(req.Updates) > 0 {
				return sh3.ExecuteUpdates(req), nil
			}
			resp, _ := sh3.Execute(req)
			return resp, nil
		}, wire.ServeConfig{Release: sh3.ReleaseResponse})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr.Store(ln.Addr().String())
		go func() { _ = ns.Serve(ln) }()
		return ns
	}
	dial3 := func() (wire.Transport, error) {
		return dialShard(addr.Load().(string), 5*time.Second)
	}
	ns := startNS()
	t3, err := dial3()
	if err != nil {
		t.Fatal(err)
	}
	shards[3] = Shard{T: t3, Redial: dial3}

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
	defer router.Close()

	upd := newUpdateStream(55, objs)
	step := func(phase string) {
		ops := upd.batch(30)
		for i := range ops {
			ops[i].From, ops[i].To = quantRect(ops[i].From), quantRect(ops[i].To)
		}
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
		// each transport kind answers in every phase.
		for s := 0; s <= 4; s++ {
			var q query.Query
			if s < 4 {
				reg := part.Regions[s]
				q = query.NewRange(quantRect(geom.RectFromCenter(reg.Center(), reg.Width()/3, reg.Height()/3)))
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

	step("mixed baseline")

	// Failover cycle on the TCP shard: listener and connections die, the
	// same state comes back on a new port.
	ns.Close()
	ns = startNS()
	defer ns.Close()
	step("tcp shard bounced")

	// Failover cycle on a func shard: the binding generation turns over.
	fss[1].kill()
	fss[1].restart()
	step("func shard bounced")

	snap := router.Stats().Snapshot()
	if snap.Redials() == 0 {
		t.Fatal("no redials counted across two transport bounces")
	}
	if snap.PerShard[3].Redials == 0 {
		t.Fatal("TCP shard bounce never redialed")
	}
	if snap.PerShard[1].Redials == 0 {
		t.Fatal("func shard bounce never redialed")
	}
}
