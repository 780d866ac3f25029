package quasaq

import (
	"fmt"
	"testing"
	"time"
)

// TestStatsGoldenRegistryRewire pins the exact DB.Stats values of a
// deterministic seed workload (admissions, rejections, failovers, plan-cache
// traffic). The observability rewire moved every counter behind these values
// onto the internal/obs registry; this golden guards that the typed view
// over the registry is byte-identical to the pre-rewire ad-hoc counters.
func TestStatsGoldenRegistryRewire(t *testing.T) {
	pol := DefaultFailoverPolicy()
	db := openLoaded(t, Options{Failover: &pol})

	reqs := []Requirement{
		{MinResolution: ResVCD, MaxResolution: ResCIF},
		{MinResolution: ResQCIF, MaxResolution: ResVCD, MinFrameRate: 10},
		{MinResolution: ResSD, MaxResolution: ResDVD, MinColorDepth: 16},
		{MinResolution: ResDVD, MaxResolution: ResDVD, MinFrameRate: 20, Security: SecurityStandard},
	}
	sites := db.Sites()
	videos := db.Videos()

	// Phase 1: a deterministic admission wave across sites and requirements.
	for i := 0; i < 24; i++ {
		site := sites[i%len(sites)]
		id := videos[i%len(videos)].ID
		req := reqs[i%len(reqs)]
		db.Deliver(site, id, req) //nolint:errcheck // rejections are part of the golden
		db.Advance(500 * time.Millisecond)
	}

	// Phase 2: crash a site mid-stream so failover and the liveness-epoch
	// invalidation paths run, then keep querying during the outage.
	if err := db.CrashSite("srv-b"); err != nil {
		t.Fatal(err)
	}
	db.Advance(2 * time.Second)
	for i := 0; i < 6; i++ {
		site := sites[i%len(sites)]
		if db.SiteDown(site) {
			site = sites[(i+1)%len(sites)]
		}
		db.Deliver(site, videos[i%len(videos)].ID, reqs[i%len(reqs)]) //nolint:errcheck
		db.Advance(time.Second)
	}
	if err := db.RestoreSite("srv-b"); err != nil {
		t.Fatal(err)
	}

	// Phase 3: a renegotiation and a warm-cache repeat wave.
	d, err := db.Deliver("srv-a", videos[0].ID, reqs[0])
	if err == nil {
		db.Advance(3 * time.Second)
		db.Renegotiate(d, reqs[1]) //nolint:errcheck
	}
	for i := 0; i < 12; i++ {
		db.Deliver(sites[i%len(sites)], videos[i%len(videos)].ID, reqs[i%len(reqs)]) //nolint:errcheck
		db.Advance(250 * time.Millisecond)
	}

	// Phase 4: saturation burst — full-quality DVD demands with no clock
	// progress, so admission control rejects once the buckets fill.
	dvd := Requirement{MinResolution: ResDVD, MaxResolution: ResDVD, MinFrameRate: 20}
	for i := 0; i < 30; i++ {
		db.Deliver(sites[i%len(sites)], videos[i%len(videos)].ID, dvd) //nolint:errcheck
	}
	db.RunUntilIdle()

	got := fmt.Sprintf("%+v", db.Stats())
	const want = "{Queries:74 Admitted:48 Rejected:26 NoPlan:0 NoViablePlan:0 PlansGenerated:4140 " +
		"Renegotiations:1 Outstanding:0 PlanCacheHits:17 PlanCacheMisses:66 PlanCacheInvalidations:24 " +
		"SessionFailures:9 Failovers:9 BestEffortFallbacks:0 FailoverRejects:0 " +
		"FramesLostInFailover:17.166133333333335 FailoverLatencyTotal:1.8s}"
	if got != want {
		t.Fatalf("DB.Stats diverged from golden:\n got: %s\nwant: %s", got, want)
	}
}
