package cluster

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/wire"
)

// Dial connects a client-side router to independently served shard
// processes (one prodb per shard): each address is dialed with wire.Dial,
// and the returned Router scatter-gathers across the live connections
// exactly like an in-process cluster.
//
// When cfg.Part is nil, a partition is derived from the shards' cataloged
// root rectangles: each shard's root center seeds one KD region, and the
// shard list is reordered so region ordinals match the dialed servers. The
// derived regions approximate whatever split produced the shard datasets —
// close enough to route every query correctly (query scatter uses live
// root rectangles, not regions), while an update whose rectangle the
// approximation misroutes fails its exact-match delete and reports false
// rather than corrupting anything. Deployments that stream updates should
// split their dataset with MakePartition and pass the same partition here.
//
// A shard connection that dies after Dial does not abort the router: each
// affected query is retried with backoff, and once the connection accrues
// cfg.FailThreshold consecutive failures the router redials the address
// transparently (counted in Stats().PerShard[s].Redials). Queries that
// exhaust their retries while the process is down fail individually — the
// failure is counted in Stats().PerShard[s].Errors — and scatter-gathering
// resumes as soon as a redial lands. Only the initial dial of every address is all-or-nothing.
//
// Each connection's protocol handshake is bounded by cfg.HandshakeTimeout
// (default 10s), applied to both the TCP dial and the version exchange; a
// peer that fails the handshake fails the dial (or the redial).
func Dial(addrs []string, cfg Config) (*Router, error) {
	hto := cfg.HandshakeTimeout
	if hto <= 0 {
		hto = defaultHandshakeTimeout
	}
	shards := make([]Shard, len(addrs))
	conns := make([]wire.Transport, len(addrs))
	for i, addr := range addrs {
		t, err := dialShard(addr, hto)
		if err != nil {
			for _, c := range conns[:i] {
				closeTransport(c)
			}
			return nil, err
		}
		conns[i] = t
		shards[i] = Shard{T: t}
		addr := addr
		shards[i].Redial = func() (wire.Transport, error) { return dialShard(addr, hto) }
	}
	if cfg.Part == nil {
		part, order, err := derivePartition(conns)
		if err != nil {
			for _, c := range conns {
				closeTransport(c)
			}
			return nil, err
		}
		cfg.Part = part
		reordered := make([]Shard, len(shards))
		for i, ord := range order {
			reordered[ord] = shards[i]
		}
		shards = reordered
	}
	r, err := New(shards, cfg)
	if err != nil {
		for _, c := range conns {
			closeTransport(c)
		}
		return nil, err
	}
	return r, nil
}

// defaultHandshakeTimeout bounds the dial + protocol handshake of one shard
// connection when Config.HandshakeTimeout is unset.
const defaultHandshakeTimeout = 10 * time.Second

// dialShard is wire.Dial as a wire.Transport, the shape Shard.Redial wants.
func dialShard(addr string, timeout time.Duration) (wire.Transport, error) {
	bc, err := wire.Dial(addr, wire.RoleClient, timeout)
	if err != nil {
		return nil, err
	}
	return bc, nil
}

func closeTransport(t wire.Transport) {
	if c, ok := t.(interface{ Close() error }); ok {
		c.Close()
	}
}

// derivePartition catalogs every shard and builds a KD partition whose
// regions each hold exactly one shard root center, returning the mapping
// from dialed index to region ordinal.
func derivePartition(conns []wire.Transport) (*Partition, []int, error) {
	objs := make([]dataset.Object, len(conns))
	for i, t := range conns {
		resp, err := t.RoundTrip(&wire.Request{Catalog: true})
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: catalog shard %d: %w", i, err)
		}
		objs[i] = dataset.Object{MBR: resp.RootMBR}
	}
	part, err := MakePartition(objs, len(conns))
	if err != nil {
		return nil, nil, err
	}
	order := make([]int, len(conns))
	seen := make([]bool, len(conns))
	for i, o := range objs {
		ord := part.LocateRect(o.MBR)
		if seen[ord] {
			return nil, nil, fmt.Errorf("cluster: shards %v share a derived region; pass an explicit Partition", []int{i, ord})
		}
		seen[ord] = true
		order[i] = ord
	}
	return part, order, nil
}
