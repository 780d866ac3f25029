// Trace: watch the QoS pipeline of every session on one timeline. The
// database is opened with tracing enabled, a handful of deliveries run
// (one of which survives a mid-stream crash via failover), and the trace
// is exported as Chrome trace_event JSON. Load trace.json in
// chrome://tracing or https://ui.perfetto.dev: each site is a process,
// each session a thread, and the rows show content lookup, plan
// enumeration (cache hit/miss), costing, reservation, streaming with GOP
// progress ticks, failover, and teardown in causal order. The metrics
// registry backing DB.Stats is dumped alongside as metrics.json.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"quasaq"
)

func main() {
	pol := quasaq.DefaultFailoverPolicy()
	db, err := quasaq.Open(quasaq.Options{Videos: quasaq.StandardCorpus(42), Failover: &pol, Tracing: true})
	if err != nil {
		log.Fatal(err)
	}

	prof := quasaq.DefaultProfile("viewer")
	req := prof.Translate(quasaq.QoP{
		Spatial: quasaq.SpatialVCD, Temporal: quasaq.TemporalStandard, Color: quasaq.ColorBasic,
	})

	// A few sessions across sites; repeats exercise the plan cache so the
	// trace shows both enumeration misses and hits.
	var victim *quasaq.Delivery
	for i := 0; i < 6; i++ {
		site := db.Sites()[i%3]
		d, err := db.Deliver(site, quasaq.VideoID(1+i%4), req)
		if err != nil {
			fmt.Printf("  %s: rejected: %v\n", site, err)
			continue
		}
		if victim == nil {
			victim = d
		}
		db.Advance(2 * time.Second)
	}

	// Crash the first session's delivery site mid-stream: its row in the
	// trace gains a failover span and resumes on an alternate replica.
	crash := victim.Plan.DeliverySite
	fmt.Printf("crashing %s at t=%v\n", crash, db.Now())
	if err := db.CrashSite(crash); err != nil {
		log.Fatal(err)
	}
	db.Advance(30 * time.Second)
	if err := db.RestoreSite(crash); err != nil {
		log.Fatal(err)
	}
	db.RunUntilIdle()

	f, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := db.TraceExport(f); err != nil {
		log.Fatal(err)
	}
	f.Close()

	m, err := os.Create("metrics.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := db.WriteMetricsJSON(m); err != nil {
		log.Fatal(err)
	}
	m.Close()

	st := db.Stats()
	fmt.Printf("sessions: %d admitted, %d failovers, %.0f frames lost in the gap\n",
		st.Admitted, st.Failovers, st.FramesLostInFailover)
	fmt.Printf("wrote trace.json (%d events) — open it in chrome://tracing or ui.perfetto.dev\n",
		db.TraceEventCount())
	fmt.Println("wrote metrics.json — the registry behind db.Stats()")
}
