// Clustergrid: the spatial sharding layer end to end, in one process. It
// builds the same dataset twice — as a single node (one shard) and as a
// 4-shard cluster — drives an identical proactive-caching client against
// each, verifies the answers agree, and prints what the 4-shard router did:
// per-shard fan-out, the single-shard fast path, kNN re-issues, cross-shard
// join scans.
//
//	go run ./examples/clustergrid
//	go run ./examples/clustergrid -shards 8 -n 60000
//
// The cluster speaks the unmodified wire protocol (shard node ids and
// epochs are re-keyed into a virtual namespace, docs/CLUSTER.md), so the
// client code is byte-for-byte the one from examples/quickstart.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"repro"
)

func main() {
	n := flag.Int("n", 30_000, "dataset objects")
	shards := flag.Int("shards", 4, "spatial shards")
	queries := flag.Int("queries", 120, "queries per client")
	flag.Parse()

	objects := repro.GenerateNE(*n, 3)
	single, err := repro.NewClusterServer(objects, repro.ClusterConfig{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer single.Close()
	clustered, err := repro.NewClusterServer(objects, repro.ClusterConfig{Shards: *shards})
	if err != nil {
		log.Fatal(err)
	}
	defer clustered.Close()
	fmt.Printf("dataset: %d objects; cluster: %d shards owning %v\n",
		*n, clustered.Shards(), clustered.ShardObjects())

	mk := func(t repro.Transport, id uint32) *repro.Client {
		cl, err := repro.NewClient(t, repro.ClientConfig{ID: id, CacheBytes: 1 << 20})
		if err != nil {
			log.Fatal(err)
		}
		return cl
	}
	clSingle := mk(single.Transport(), 1)
	clCluster := mk(clustered.Transport(), 1)

	r := rand.New(rand.NewSource(9))
	hot := repro.Pt(0.5, 0.5)
	mismatches := 0
	for i := 0; i < *queries; i++ {
		// A drifting hotspot keeps the caches warm and the remainder
		// queries real: handed-over state crosses shard boundaries.
		hot = repro.Pt(walk(r, hot.X), walk(r, hot.Y))
		var q repro.Query
		switch i % 3 {
		case 0:
			q = repro.NewRange(repro.RectFromCenter(hot, 0.04, 0.04))
		case 1:
			q = repro.NewKNN(hot, 8)
		default:
			q = repro.NewJoin(repro.RectFromCenter(hot, 0.1, 0.1), 0.004)
		}
		a, err := clSingle.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		b, err := clCluster.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		if !sameIDs(a.Results, b.Results) {
			mismatches++
		}
	}
	fmt.Printf("%d mixed queries against both backends, %d result mismatches\n", *queries, mismatches)
	fmt.Println(clustered.ClusterStats())
	if mismatches > 0 {
		log.Fatal("cluster answers diverged from the single node")
	}
}

func walk(r *rand.Rand, v float64) float64 {
	v += (r.Float64() - 0.5) * 0.12
	if v < 0.05 {
		v = 0.05
	}
	if v > 0.95 {
		v = 0.95
	}
	return v
}

func sameIDs(a, b []repro.ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]repro.ObjectID(nil), a...)
	bs := append([]repro.ObjectID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
