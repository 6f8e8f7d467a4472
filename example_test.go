package repro_test

import (
	"fmt"
	"sort"

	"repro"
)

// A tiny fixed dataset keeps the example output deterministic.
func exampleObjects() []repro.Object {
	return []repro.Object{
		{ID: 1, MBR: repro.R(0.10, 0.10, 0.12, 0.12), Size: 1000},
		{ID: 2, MBR: repro.R(0.20, 0.20, 0.22, 0.22), Size: 1000},
		{ID: 3, MBR: repro.R(0.80, 0.80, 0.82, 0.82), Size: 1000},
		{ID: 4, MBR: repro.R(0.15, 0.15, 0.17, 0.17), Size: 1000},
	}
}

func ExampleNewClient() {
	// A single node is a one-shard cluster.
	srv, err := repro.NewClusterServer(exampleObjects(), repro.ClusterConfig{Shards: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer srv.Close()
	cl, err := repro.NewClient(srv.Transport(), repro.ClientConfig{CacheBytes: 1 << 20})
	if err != nil {
		fmt.Println(err)
		return
	}

	rep, err := cl.Query(repro.NewKNN(repro.Pt(0.11, 0.11), 2))
	if err != nil {
		fmt.Println(err)
		return
	}
	ids := append([]repro.ObjectID(nil), rep.Results...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Println("nearest two:", ids)

	// The same query again is answered from the proactive cache.
	rep, _ = cl.Query(repro.NewKNN(repro.Pt(0.11, 0.11), 2))
	fmt.Println("second time local:", rep.LocalOnly)
	// Output:
	// nearest two: [1 4]
	// second time local: true
}

func ExampleClient_Query_range() {
	srv, _ := repro.NewClusterServer(exampleObjects(), repro.ClusterConfig{Shards: 1})
	defer srv.Close()
	cl, _ := repro.NewClient(srv.Transport(), repro.ClientConfig{CacheBytes: 1 << 20})

	rep, _ := cl.Query(repro.NewRange(repro.R(0.0, 0.0, 0.3, 0.3)))
	ids := append([]repro.ObjectID(nil), rep.Results...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Println("in window:", ids)
	// Output:
	// in window: [1 2 4]
}

func ExampleClient_Query_join() {
	srv, _ := repro.NewClusterServer(exampleObjects(), repro.ClusterConfig{Shards: 1})
	defer srv.Close()
	cl, _ := repro.NewClient(srv.Transport(), repro.ClientConfig{CacheBytes: 1 << 20})

	// Pairs (1,4) and (2,4) lie within 0.05 of each other; 1-2 is farther.
	rep, _ := cl.Query(repro.NewJoin(repro.R(0, 0, 0.5, 0.5), 0.05))
	pairs := make([][2]repro.ObjectID, 0, len(rep.Pairs))
	for _, p := range rep.Pairs {
		a, b := p[0], p[1]
		if b < a {
			a, b = b, a
		}
		pairs = append(pairs, [2]repro.ObjectID{a, b})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	for _, p := range pairs {
		fmt.Println("close pair:", p[0], p[1])
	}
	// Output:
	// close pair: 1 4
	// close pair: 2 4
}
