// Coldstart: dynamic replication from a bare archive. The database begins
// with only original copies (one per video, spread over the sites — no
// quality ladder). As mixed-quality demand arrives, the online replicator
// observes which tiers are wanted, ships replicas over the servers' links,
// and the admission rate climbs toward what offline full replication would
// give. This demonstrates the §2 item 1 mechanism the paper deferred to
// follow-up work.
package main

import (
	"fmt"
	"log"
	"time"

	"quasaq"
)

func main() {
	db, err := quasaq.Open(quasaq.Options{
		SingleCopyReplication: true,
		Videos:                quasaq.StandardCorpus(42),
		Dynamic:               &quasaq.DynamicReplication{Interval: 15 * time.Second, Batch: 4},
	})
	if err != nil {
		log.Fatal(err)
	}

	prof := quasaq.DefaultProfile("viewer")
	tiers := []quasaq.QoP{
		{Spatial: quasaq.SpatialDVD, Temporal: quasaq.TemporalSmooth, Color: quasaq.ColorTrue},
		{Spatial: quasaq.SpatialTV, Temporal: quasaq.TemporalStandard, Color: quasaq.ColorTrue},
		{Spatial: quasaq.SpatialVCD, Temporal: quasaq.TemporalStandard, Color: quasaq.ColorBasic},
		{Spatial: quasaq.SpatialLow, Temporal: quasaq.TemporalStandard, Color: quasaq.ColorGray},
	}

	fmt.Println("cold start: single-copy archive, dynamic replication on")
	fmt.Printf("%8s %10s %10s %10s %12s\n", "t", "queries", "admitted", "rejected", "replicas")
	var queries int
	for minute := 0; minute < 10; minute++ {
		// ~30 queries per simulated minute, mixed tiers, mixed sites.
		for i := 0; i < 30; i++ {
			site := db.Sites()[(queries+i)%3]
			id := quasaq.VideoID(1 + (queries+i)%15)
			req := prof.Translate(tiers[(queries+i)%len(tiers)])
			db.Deliver(site, id, req) // rejections expected early on
			db.Advance(2 * time.Second)
		}
		queries += 30
		st := db.Stats()
		fmt.Printf("%8v %10d %10d %10d %12d\n",
			db.Now().Truncate(time.Second), st.Queries, st.Admitted, st.Rejected,
			db.DynamicReplicasCreated())
	}
	st := db.Stats()
	fmt.Printf("\nfinal admission ratio: %.0f%% (replicas materialized: %d)\n",
		100*float64(st.Admitted)/float64(st.Queries), db.DynamicReplicasCreated())
	fmt.Println("compare: a static single-copy archive admits a far smaller share — " +
		"run `go run ./cmd/qsqbench -exp dynamic` for the controlled comparison")
}
