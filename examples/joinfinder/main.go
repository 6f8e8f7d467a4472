// Joinfinder: the spatial-join scenario that semantic caching cannot serve
// at all (the paper forwards every join to the server) but proactive caching
// accelerates, because join processing reuses the same cached R*-tree nodes
// and objects as any other query type.
//
// A field engineer inspects sites pair-by-pair: "which pairs of assets near
// me are closer than the safety distance?" — after surveying the area with
// range and kNN queries, the joins run almost entirely from cache.
//
//	go run ./examples/joinfinder
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	objects := repro.GenerateRD(40_000, 3) // road-segment assets
	srv, err := repro.NewClusterServer(objects, repro.ClusterConfig{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	cl, err := repro.NewClient(srv.Transport(), repro.ClientConfig{CacheBytes: 4 << 20})
	if err != nil {
		log.Fatal(err)
	}

	site := repro.Pt(0.31, 0.47)
	cl.SetPosition(site)
	const safety = 2e-4

	// Cold join: everything comes from the server.
	cold, err := cl.Query(repro.NewJoin(repro.RectFromCenter(site, 0.01, 0.01), safety))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold join:   %3d pairs, %6d B down, resp %.3fs\n",
		len(cold.Pairs), cold.DownlinkBytes, cold.RespTime)

	// Survey the area with other query types — this is what a technician
	// does anyway, and it proactively loads index and objects.
	if _, err := cl.Query(repro.NewRange(repro.RectFromCenter(site, 0.012, 0.012))); err != nil {
		log.Fatal(err)
	}
	if _, err := cl.Query(repro.NewKNN(site, 5)); err != nil {
		log.Fatal(err)
	}

	// Warm join: the cached index confirms pairs locally.
	warm, err := cl.Query(repro.NewJoin(repro.RectFromCenter(site, 0.01, 0.01), safety))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm join:   %3d pairs, %6d B down, resp %.3fs, hit %.0f%%\n",
		len(warm.Pairs), warm.DownlinkBytes, warm.RespTime, warm.HitRate()*100)

	// Tighter threshold on the same area: still served by the same cache —
	// object-level reuse means parameters can change freely.
	tight, err := cl.Query(repro.NewJoin(repro.RectFromCenter(site, 0.008, 0.008), safety/2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tight join:  %3d pairs, %6d B down, resp %.3fs, hit %.0f%%\n",
		len(tight.Pairs), tight.DownlinkBytes, tight.RespTime, tight.HitRate()*100)

	if len(cold.Pairs) != len(warm.Pairs) {
		log.Fatalf("warm join changed the answer: %d vs %d pairs", len(warm.Pairs), len(cold.Pairs))
	}
	fmt.Println("\nwarm results verified identical to cold results")
}
