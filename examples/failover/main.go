// Failover: a server crashes mid-stream and the quality manager recovers.
// The database is opened with failover enabled, a fault schedule crashes
// srv-b while sessions are playing, and the observer shows each recovery:
// streams resumed on an alternate replica from the last delivered frame,
// degraded to best-effort, or rejected with ErrNoViablePlan when nothing
// viable survives.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"quasaq"
)

func main() {
	pol := quasaq.DefaultFailoverPolicy()
	pol.BestEffortFallback = true
	db, err := quasaq.Open(quasaq.Options{Videos: quasaq.StandardCorpus(7), Failover: &pol})
	if err != nil {
		log.Fatal(err)
	}
	db.OnFailover(func(ev quasaq.FailoverEvent) {
		switch {
		case ev.Err != nil:
			fmt.Printf("  [%v] video %d abandoned after %d attempts: %v\n",
				ev.At, ev.Video, ev.Attempts, ev.Err)
		case ev.Degraded:
			fmt.Printf("  [%v] video %d degraded to best-effort on %s (lost %.0f frames)\n",
				ev.At, ev.Video, ev.ToSite, ev.Frames)
		default:
			fmt.Printf("  [%v] video %d failed over %s -> %s in %v (lost %.0f frames)\n",
				ev.At, ev.Video, ev.FromSite, ev.ToSite, ev.Latency, ev.Frames)
		}
	})

	// Start a handful of modest streams; some will land on srv-b.
	req := quasaq.Requirement{MinResolution: quasaq.ResVCD, MinFrameRate: 20, MinColorDepth: 8}
	started := 0
	for i := 0; i < 9; i++ {
		site := db.Sites()[i%3]
		if _, err := db.Deliver(site, quasaq.VideoID(1+i), req); err == nil {
			started++
		}
	}
	fmt.Printf("%d streams playing across %v\n", started, db.Sites())

	// Crash srv-b thirty seconds in; bring it back two minutes later.
	sched, err := quasaq.ParseFaultSchedule(`
		30s  node-crash   srv-b
		150s node-restart srv-b
	`)
	if err != nil {
		log.Fatal(err)
	}
	if err := db.InjectFaults(sched); err != nil {
		log.Fatal(err)
	}

	fmt.Println("crashing srv-b at t=30s:")
	db.Advance(40 * time.Second)
	fmt.Printf("at t=%v srv-b down: %v\n", db.Now(), db.SiteDown("srv-b"))

	// While srv-b is down, new deliveries route around it — and asking
	// srv-b itself yields a typed error.
	if _, err := db.Deliver("srv-b", 12, req); errors.Is(err, quasaq.ErrNodeDown) {
		fmt.Printf("delivery at crashed site rejected: %v\n", err)
	}
	if _, err := db.Deliver("srv-a", 12, req); err == nil {
		fmt.Println("delivery via srv-a still admitted")
	}

	db.RunUntilIdle()
	st := db.Stats()
	fmt.Printf("final: %d admitted, %d session failures, %d failovers, %d best-effort, %d rejects, %.0f frames lost\n",
		st.Admitted, st.SessionFailures, st.Failovers, st.BestEffortFallbacks,
		st.FailoverRejects, st.FramesLostInFailover)
}
