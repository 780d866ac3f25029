// Newsroom: a load-spike scenario comparing plan cost models. A newsroom
// hits the archive with a burst of mixed-quality requests; the same burst
// is served by a QuaSAQ instance using the LRB model and by one using the
// paper's randomized baseline. LRB's contention-aware choices admit more
// sessions and reject fewer queries (the paper's Figure 7 in miniature).
package main

import (
	"fmt"
	"log"

	"quasaq"
)

func main() {
	reqTiers := []quasaq.Requirement{
		{MinResolution: quasaq.ResDVD, MinFrameRate: 23, MinColorDepth: 24},
		{MinResolution: quasaq.ResCIF, MaxResolution: quasaq.ResSD, MinFrameRate: 20},
		{MinResolution: quasaq.ResVCD, MaxResolution: quasaq.ResCIF, MinFrameRate: 20, MinColorDepth: 16},
	}

	run := func(name string, model quasaq.CostModel) *quasaq.DB {
		db, err := quasaq.Open(quasaq.Options{Model: model, Videos: quasaq.StandardCorpus(42)})
		if err != nil {
			log.Fatal(err)
		}
		// The burst: 90 queries round-robin over sites, videos and tiers,
		// all within one virtual minute.
		admitted := 0
		for i := 0; i < 90; i++ {
			site := db.Sites()[i%3]
			id := quasaq.VideoID(1 + i%15)
			if _, err := db.Deliver(site, id, reqTiers[i%len(reqTiers)]); err == nil {
				admitted++
			}
		}
		st := db.Stats()
		fmt.Printf("%-22s admitted %2d/90, rejected %2d, outstanding %3d\n",
			name, st.Admitted, st.Rejected, st.Outstanding)
		for _, s := range db.Sites() {
			usage, capacity, err := db.SiteUsage(s)
			if err != nil {
				panic(err) // sites come from db.Sites()
			}
			fmt.Printf("  %s: net %5.1f%%  cpu %5.1f%%  disk %5.1f%%\n", s,
				100*usage[1]/capacity[1], 100*usage[0]/capacity[0], 100*usage[2]/capacity[2])
		}
		return db
	}

	fmt.Println("newsroom burst: 90 mixed-quality queries against a 3-server archive")
	lrb := run("LRB (QuaSAQ)", quasaq.ModelLRB)
	random := run("Random baseline", quasaq.NewRandomModel(99))
	minsum := run("Min-sum ablation", quasaq.ModelMinSum)

	// Everything drains; compare end-to-end QoS successes.
	lrb.RunUntilIdle()
	random.RunUntilIdle()
	minsum.RunUntilIdle()
	fmt.Printf("\nLRB admitted %d sessions; random %d; min-sum %d\n",
		lrb.Stats().Admitted, random.Stats().Admitted, minsum.Stats().Admitted)
	if lrb.Stats().Admitted <= random.Stats().Admitted {
		fmt.Println("unexpected: random matched LRB on this burst")
	} else {
		fmt.Println("LRB wins: balanced buckets leave room for more of the burst")
	}
}
