// Mobiletour: a client drives through the map under the random-waypoint
// mobility model, issuing mixed spatial queries about its neighborhood —
// the paper's simulation workload in miniature. Watch the hit rate climb as
// the proactive cache warms up, then stabilize as replacement kicks in.
//
//	go run ./examples/mobiletour
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/mobility"
)

func main() {
	objects := repro.GenerateNE(30_000, 7)
	srv, err := repro.NewClusterServer(objects, repro.ClusterConfig{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	var total int64
	for _, o := range objects {
		total += int64(o.Size)
	}
	cacheBytes := int(total / 100) // the paper's default: |C| = 1%
	cl, err := repro.NewClient(srv.Transport(), repro.ClientConfig{CacheBytes: cacheBytes})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %.0f MB, cache %.1f MB (1%%)\n\n", float64(total)/(1<<20), float64(cacheBytes)/(1<<20))

	rng := rand.New(rand.NewSource(42))
	mob := mobility.NewRandomWaypoint(mobility.Config{Speed: 1e-4, PauseMean: 50}, rng)

	const queries = 600
	const leg = 100
	var saved, result, up, down int64
	var local int
	fmt.Printf("%8s %8s %10s %12s %12s\n", "queries", "hitc", "local", "uplink B/q", "downlink B/q")
	for i := 1; i <= queries; i++ {
		think := rng.ExpFloat64() * 50
		pos := mob.Advance(think)
		cl.SetPosition(pos)

		var q repro.Query
		switch rng.Intn(3) {
		case 0:
			q = repro.NewRange(repro.RectFromCenter(pos, 0.002, 0.002))
		case 1:
			q = repro.NewKNN(pos, 1+rng.Intn(5))
		default:
			q = repro.NewJoin(repro.RectFromCenter(pos, 0.004, 0.004), 5e-5)
		}
		rep, err := cl.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		saved += int64(rep.SavedBytes)
		result += int64(rep.ResultBytes)
		up += int64(rep.UplinkBytes)
		down += int64(rep.DownlinkBytes)
		if rep.LocalOnly {
			local++
		}

		if i%leg == 0 {
			hitc := 0.0
			if result > 0 {
				hitc = float64(saved) / float64(result)
			}
			fmt.Printf("%8d %7.1f%% %9d%% %12.0f %12.0f\n",
				i, hitc*100, local*100/leg, float64(up)/float64(leg), float64(down)/float64(leg))
			saved, result, up, down, local = 0, 0, 0, 0, 0
		}
	}
	fmt.Printf("\nfinal cache: %d bytes (%.0f%% index)\n",
		cl.CacheUsed(), 100*float64(cl.CacheIndexBytes())/float64(cl.CacheUsed()))
}
