// Quickstart: stand up a spatial server, attach a proactive-caching mobile
// client, and watch the cache turn remote queries into local ones.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// A city's worth of points of interest (synthetic NE-like data:
	// clustered rectangles with Zipf-sized payloads, ids 1..N).
	objects := repro.GenerateNE(20_000, 1)
	// A single node is a one-shard cluster.
	srv, err := repro.NewClusterServer(objects, repro.ClusterConfig{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("server: %d objects indexed on %d shard\n\n", srv.ShardObjects()[0], srv.Shards())

	// A mobile client with a 2 MB proactive cache.
	cl, err := repro.NewClient(srv.Transport(), repro.ClientConfig{CacheBytes: 2 << 20})
	if err != nil {
		log.Fatal(err)
	}

	me := repro.Pt(0.42, 0.58)
	cl.SetPosition(me)

	// 1. A range query: "what is within this window around me?"
	window := repro.RectFromCenter(me, 0.01, 0.01)
	rep, err := cl.Query(repro.NewRange(window))
	if err != nil {
		log.Fatal(err)
	}
	describe("range (cold)", rep)

	// 2. A kNN query at the same spot: proactive caching reuses the range
	// query's objects AND index — something semantic caching cannot do.
	rep, err = cl.Query(repro.NewKNN(me, 5))
	if err != nil {
		log.Fatal(err)
	}
	describe("5-NN (warm area)", rep)

	// 3. The same kNN again: fully local.
	rep, err = cl.Query(repro.NewKNN(me, 5))
	if err != nil {
		log.Fatal(err)
	}
	describe("5-NN (repeat)", rep)

	// 4. A distance self-join: "which pairs of objects near me are within
	// 0.002 of each other?"
	rep, err = cl.Query(repro.NewJoin(repro.RectFromCenter(me, 0.02, 0.02), 0.002))
	if err != nil {
		log.Fatal(err)
	}
	describe(fmt.Sprintf("join (%d pairs)", len(rep.Pairs)), rep)

	fmt.Printf("\ncache: %d bytes used, %d of them index\n", cl.CacheUsed(), cl.CacheIndexBytes())
}

func describe(tag string, rep repro.Report) {
	mode := "remote"
	if rep.LocalOnly {
		mode = "LOCAL"
	}
	fmt.Printf("%-18s %-6s results=%-3d hit=%4.0f%%  up=%dB down=%dB resp=%.3fs\n",
		tag, mode, len(rep.Results), rep.HitRate()*100,
		rep.UplinkBytes, rep.DownlinkBytes, rep.RespTime)
}
