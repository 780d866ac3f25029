package core

import (
	"testing"

	"quasaq/internal/edgecache"
	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

// edgeManager wires a testbed cluster with a two-site edge tier on an
// aggressive cache config (single observation admits a prefix, 1 s tick).
func edgeManager(t *testing.T, cfg edgecache.Config) (*simtime.Simulator, *Cluster, *Manager, *edgecache.Manager) {
	t.Helper()
	sim, c := testCluster(t)
	m := NewManager(c, LRB{})
	if cfg.MinHits == 0 {
		cfg.MinHits = 1
	}
	if cfg.PrefixGOPs == 0 {
		cfg.PrefixGOPs = 4
	}
	if cfg.Interval == 0 {
		cfg.Interval = simtime.Seconds(1)
	}
	ec, err := m.EnableEdgeTier([]EdgeSite{{Name: "edge-1"}, {Name: "edge-2"}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ec.MapClient("srv-a", "edge-1")
	ec.MapClient("srv-b", "edge-2")
	ec.MapClient("srv-c", "edge-1")
	return sim, c, m, ec
}

// ladderPrefixBytes mirrors the cache's sizing: the first n GOPs at the
// highest-bitrate (LAN) ladder variant, which is what the prefix copies.
func ladderPrefixBytes(v *media.Video, n int) int64 {
	va := media.NewVariant(media.LadderQuality(media.LinkLAN, v.FrameRate))
	var total int64
	gop := v.GOP.Len()
	for g := 0; g < n && g*gop < v.Frames(); g++ {
		total += va.GOPSize(v, g*gop)
	}
	return total
}

func warmPrefix(t *testing.T, sim *simtime.Simulator, ec *edgecache.Manager, querySite string, id media.VideoID) {
	t.Helper()
	ec.Observe(querySite, id)
	sim.RunUntil(sim.Now() + simtime.Seconds(1.5))
	home := ec.HomeEdge(querySite)
	if !ec.Holds(home, id) {
		t.Fatalf("prefix of %s not installed at %s after warmup: %+v", id, home, ec.Stats())
	}
}

// TestSplitPlanEnumeration: once an edge prefix exists, the generator emits
// split plans — prefix leg at the edge, tail leg on a same-quality full
// replica elsewhere, joined at a GOP-aligned split frame — alongside the
// unchanged origin plans, and never delivers a full video from an edge site
// it doesn't hold.
func TestSplitPlanEnumeration(t *testing.T) {
	sim, c, m, ec := edgeManager(t, edgecache.Config{})
	v, _ := c.Engine.Video(1)
	req := qos.Requirement{} // unconstrained: matches the high-bitrate prefix variant
	warmPrefix(t, sim, ec, "srv-a", v.ID)

	plans, _ := m.planCandidates("srv-a", v, req)
	var split, plain int
	for _, p := range plans {
		if !p.Split() {
			plain++
			if c.Dir.Tier(p.DeliverySite) == 1 { // metadata.TierEdge
				t.Fatalf("non-split plan delivers from edge site: %s", p)
			}
			continue
		}
		split++
		if p.SplitFrame <= 0 || p.SplitFrame >= v.Frames() {
			t.Fatalf("degenerate split frame %d in %s", p.SplitFrame, p)
		}
		if p.SplitFrame%v.GOP.Len() != 0 {
			t.Fatalf("split frame %d not GOP-aligned", p.SplitFrame)
		}
		if !p.TailReplica.Full() {
			t.Fatalf("tail replica is partial: %s", p)
		}
		if p.TailReplica.Variant.Quality != p.Replica.Variant.Quality {
			t.Fatalf("split legs change coded variant: %s", p)
		}
		if p.TailReplica.Site == p.Replica.Site {
			t.Fatalf("tail and prefix on the same site: %s", p)
		}
		stages := p.ReservationStages()
		if len(stages) < 2 || stages[0].Kind != StageDeliver || stages[1].Kind != StageTailDeliver {
			t.Fatalf("split reservation order wrong: %v", stages)
		}
		if p.TailDemand[qos.ResNetBandwidth] <= 0 {
			t.Fatalf("tail stage has no network demand: %s", p)
		}
	}
	if split == 0 {
		t.Fatal("no split plans after prefix install")
	}
	if plain == 0 {
		t.Fatal("origin plans disappeared")
	}
}

// TestSplitDeliveryHandover runs a split plan end to end: the prefix leg
// streams at the edge, hands over to the tail site at the split frame, and
// the logical delivery finishes once with all leases returned.
func TestSplitDeliveryHandover(t *testing.T) {
	sim, c, m, ec := edgeManager(t, edgecache.Config{})
	v, _ := c.Engine.Video(1)
	req := qos.Requirement{} // unconstrained: matches the high-bitrate prefix variant
	warmPrefix(t, sim, ec, "srv-a", v.ID)

	plans, _ := m.planCandidates("srv-a", v, req)
	var sp *Plan
	for _, p := range plans {
		if p.Split() {
			sp = p
			break
		}
	}
	if sp == nil {
		t.Fatal("no split plan to execute")
	}
	done := 0
	d := &Delivery{mgr: m, video: v, req: req, querySite: "srv-a",
		opts: ServiceOptions{OnDone: func(*Delivery) { done++ }}}
	var rerr error
	m.executeInto(d, sp, 0, func(err error) { rerr = err })
	if rerr != nil {
		t.Fatalf("split reservation failed: %v", rerr)
	}
	if d.leases[tailSlot] == nil {
		t.Fatal("tail lease not parked on the delivery")
	}
	sim.Run()
	if done != 1 {
		t.Fatalf("OnDone fired %d times, want 1", done)
	}
	ms := m.Stats()
	if ms.SplitAdmissions != 1 || ms.Handovers != 1 {
		t.Fatalf("split counters = admissions %d handovers %d, want 1/1", ms.SplitAdmissions, ms.Handovers)
	}
	if d.legSite != sp.TailReplica.Site || d.leases[tailSlot] != nil {
		t.Fatal("handover left the delivery in a bad state")
	}
	if !d.Session.Done() || d.Session.Position() != v.Frames() {
		t.Fatalf("tail leg ended at frame %d of %d", d.Session.Position(), v.Frames())
	}
	if c.OutstandingSessions() != 0 {
		t.Fatalf("outstanding sessions = %d after teardown", c.OutstandingSessions())
	}
	for _, site := range []string{"edge-1", sp.TailReplica.Site} {
		u, _, err := c.Usage(site)
		if err != nil {
			t.Fatal(err)
		}
		if u != (qos.ResourceVector{}) {
			t.Fatalf("site %s still holds resources after teardown: %v", site, u)
		}
	}
}

// TestSplitResumePastBoundary: a resume (failover/renegotiation) at or past
// the split frame starts directly on the tail leg — the edge lease is
// returned immediately and no handover happens.
func TestSplitResumePastBoundary(t *testing.T) {
	sim, c, m, ec := edgeManager(t, edgecache.Config{})
	v, _ := c.Engine.Video(1)
	req := qos.Requirement{} // unconstrained: matches the high-bitrate prefix variant
	warmPrefix(t, sim, ec, "srv-a", v.ID)

	plans, _ := m.planCandidates("srv-a", v, req)
	var sp *Plan
	for _, p := range plans {
		if p.Split() {
			sp = p
			break
		}
	}
	if sp == nil {
		t.Fatal("no split plan")
	}
	opts := ServiceOptions{StartFrame: sp.SplitFrame}
	d := &Delivery{mgr: m, video: v, req: req, querySite: "srv-a", opts: opts}
	var rerr error
	m.executeInto(d, sp, opts.StartFrame, func(err error) { rerr = err })
	if rerr != nil {
		t.Fatalf("resume reservation failed: %v", rerr)
	}
	u, _, err := c.Usage("edge-1")
	if err != nil {
		t.Fatal(err)
	}
	if u != (qos.ResourceVector{}) {
		t.Fatalf("edge lease not returned on past-boundary resume: %v", u)
	}
	sim.Run()
	ms := m.Stats()
	if ms.Handovers != 0 {
		t.Fatalf("past-boundary resume recorded %d handovers, want 0", ms.Handovers)
	}
	if !d.Session.Done() || d.Session.Position() != v.Frames() {
		t.Fatalf("tail-only delivery ended at frame %d of %d", d.Session.Position(), v.Frames())
	}
}

// TestStaleSplitPlanNeverAdmittedAfterEviction is the plan-cache regression
// gate: serving a video warms the candidate cache with split plans; once
// budget pressure evicts the prefix, the next admission must re-enumerate
// (epoch bump) and never bind a split plan against the vanished replica.
func TestStaleSplitPlanNeverAdmittedAfterEviction(t *testing.T) {
	_, c0 := testCluster(t)
	videos := c0.Engine.All()
	// Budget = the largest prefix in the corpus: any other video's prefix
	// fits the budget, but never alongside the resident one.
	var hot *media.Video
	var budget int64
	for _, v := range videos {
		if b := ladderPrefixBytes(v, 4); b > budget {
			hot, budget = v, b
		}
	}
	var rival *media.Video
	for _, v := range videos {
		if v != hot {
			rival = v
			break
		}
	}
	sim, _, m, ec := edgeManager(t, edgecache.Config{ByteBudget: budget})
	req := qos.Requirement{} // unconstrained: every video admits
	warmPrefix(t, sim, ec, "srv-a", hot.ID)

	d, err := m.Service("srv-a", hot.ID, req, ServiceOptions{})
	if err != nil {
		t.Fatalf("warm admission failed: %v", err)
	}
	hadSplit := false
	for _, p := range mustCandidates(t, m, "srv-a", hot, req) {
		if p.Split() {
			hadSplit = true
		}
	}
	if !hadSplit {
		t.Fatal("cached candidate set carries no split plan while the prefix is resident")
	}
	d.Cancel()

	// Let the resident cool, then make the rival strictly hotter: the tick
	// evicts hot's prefix to admit the rival's.
	sim.RunUntil(sim.Now() + simtime.Seconds(2.5))
	ec.Observe("srv-a", rival.ID)
	ec.Observe("srv-a", rival.ID)
	sim.RunUntil(sim.Now() + simtime.Seconds(1.5))
	if ec.Holds("edge-1", hot.ID) {
		t.Fatal("prefix survived budget pressure; eviction never happened")
	}

	d2, err := m.Service("srv-a", hot.ID, req, ServiceOptions{})
	if err != nil {
		t.Fatalf("post-eviction admission failed: %v", err)
	}
	defer d2.Cancel()
	if d2.Plan.Split() {
		t.Fatalf("stale split plan admitted after eviction: %s", d2.Plan)
	}
	if !d2.Plan.Replica.Full() {
		t.Fatalf("admitted plan reads a partial replica: %s", d2.Plan)
	}
	for _, p := range mustCandidates(t, m, "srv-a", hot, req) {
		if p.Split() {
			t.Fatalf("candidate set still carries a split plan after eviction: %s", p)
		}
	}
}

func mustCandidates(t *testing.T, m *Manager, site string, v *media.Video, req qos.Requirement) []*Plan {
	t.Helper()
	plans, _ := m.planCandidates(site, v, req)
	if len(plans) == 0 {
		t.Fatal("no candidates")
	}
	return plans
}

// TestTailLeaseRevocationFailsDelivery: revoking the parked tail lease while
// the prefix leg streams fails the delivery immediately (and without
// failover, abandons it) instead of stalling at the boundary.
func TestTailLeaseRevocationFailsDelivery(t *testing.T) {
	sim, _, m, ec := edgeManager(t, edgecache.Config{})
	v, _ := m.cluster.Engine.Video(1)
	req := qos.Requirement{} // unconstrained: matches the high-bitrate prefix variant
	warmPrefix(t, sim, ec, "srv-a", v.ID)

	plans, _ := m.planCandidates("srv-a", v, req)
	var sp *Plan
	for _, p := range plans {
		if p.Split() {
			sp = p
			break
		}
	}
	if sp == nil {
		t.Fatal("no split plan")
	}
	var failed error
	d := &Delivery{mgr: m, video: v, req: req, querySite: "srv-a",
		opts: ServiceOptions{OnFailed: func(_ *Delivery, err error) { failed = err }}}
	var rerr error
	m.executeInto(d, sp, 0, func(err error) { rerr = err })
	if rerr != nil {
		t.Fatalf("reservation failed: %v", rerr)
	}
	// Crash the tail site mid-prefix: its broker's lease revokes.
	sim.RunUntil(sim.Now() + simtime.Seconds(0.5))
	m.cluster.Nodes[sp.TailReplica.Site].Fail()
	sim.Run()
	if !d.Failed() || failed == nil {
		t.Fatal("tail revocation did not abandon the delivery")
	}
	if m.Stats().Handovers != 0 {
		t.Fatal("failed delivery still recorded a handover")
	}
}
