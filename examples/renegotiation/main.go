// Renegotiation: the two §3.2 renegotiation scenarios. First, a request is
// rejected by admission control and gets its "second chance": the user
// profile degrades the QoP along the user's preference order until a plan
// is admittable. Second, a user upgrades quality mid-playback and the
// quality manager re-plans the live delivery.
package main

import (
	"fmt"
	"log"
	"time"

	"quasaq"
)

func main() {
	db, err := quasaq.Open(quasaq.Options{Videos: quasaq.StandardCorpus(42)})
	if err != nil {
		log.Fatal(err)
	}

	// Fill the cluster with full-quality sessions until DVD-grade
	// admissions start failing.
	top := quasaq.Requirement{MinResolution: quasaq.ResDVD, MinFrameRate: 23, MinColorDepth: 24}
	filled := 0
	for i := 0; ; i++ {
		if _, err := db.Deliver(db.Sites()[i%3], quasaq.VideoID(1+i%15), top); err != nil {
			break
		}
		filled++
	}
	fmt.Printf("cluster saturated with %d full-quality sessions\n", filled)

	// Scenario 1: second chance. The viewer prefers to keep smooth motion
	// and will give up color depth first, then spatial detail.
	prof := quasaq.DefaultProfile("viewer")
	prof.Weights.Temporal = 10
	prof.Weights.Spatial = 5
	prof.Weights.Color = 1
	want := quasaq.QoP{Spatial: quasaq.SpatialDVD, Temporal: quasaq.TemporalSmooth, Color: quasaq.ColorTrue}

	if _, err := db.Deliver("srv-a", 3, prof.Translate(want)); err == nil {
		log.Fatal("expected the full-quality request to be rejected")
	} else {
		fmt.Printf("full-quality request rejected: %v\n", err)
	}
	d, admitted, err := db.DeliverQoP("srv-a", prof, want, 3, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second chance admitted at: %v\n", admitted)
	fmt.Printf("  plan: %s\n", d.Plan)

	// Scenario 2: renegotiation during playback. Play for a while, then
	// capacity frees up and the viewer asks for full quality again.
	db.Advance(10 * time.Second)
	fmt.Printf("at t=%v: %d frames delivered at degraded quality\n",
		db.Now(), d.Session.FramesDelivered())

	// Half the background sessions end early (their viewers hang up).
	// Advance far enough that short videos complete and capacity frees.
	db.Advance(170 * time.Second)
	nd, err := db.Renegotiate(d, prof.Translate(want))
	if err != nil {
		fmt.Printf("renegotiation still rejected at t=%v: %v\n", db.Now(), err)
		fmt.Printf("continuing at: %v\n", nd.Plan.Delivered)
	} else {
		fmt.Printf("renegotiated up at t=%v\n", db.Now())
		fmt.Printf("  new plan: %s\n", nd.Plan)
	}

	db.RunUntilIdle()
	st := db.Stats()
	fmt.Printf("final: %d queries, %d admitted, %d rejected, %d renegotiations\n",
		st.Queries, st.Admitted, st.Rejected, st.Renegotiations)
}
