package core

import (
	"errors"
	"testing"

	"quasaq/internal/edgecache"
	"quasaq/internal/media"
	"quasaq/internal/netsim"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
	"quasaq/internal/transport"
)

// A delivery's life — reservation, first leg, handover, failover resume,
// cancellation — runs through one lease table and one leg starter. These
// tests pin the paths through it that the edge and failover suites do not:
// a fault on the tail leg after the handover, a cancel racing a failover
// reservation, and the per-delivery stream options reaching every leg.

// firstSplitPlan returns the first split candidate for (srv-a, v, req).
func firstSplitPlan(t *testing.T, m *Manager, v *media.Video, req qos.Requirement) *Plan {
	t.Helper()
	plans, _ := m.planCandidates("srv-a", v, req)
	for _, p := range plans {
		if p.Split() {
			return p
		}
	}
	t.Fatal("no split plan")
	return nil
}

// executeSplit reserves and binds p onto a fresh delivery of v queried at
// srv-a, failing the test on a refusal.
func executeSplit(t *testing.T, m *Manager, v *media.Video, req qos.Requirement, p *Plan, startFrame int, opts ServiceOptions) *Delivery {
	t.Helper()
	opts.StartFrame = startFrame
	d := &Delivery{mgr: m, video: v, req: req, querySite: "srv-a", opts: opts}
	var rerr error
	m.executeInto(d, p, startFrame, func(err error) { rerr = err })
	if rerr != nil {
		t.Fatalf("split reservation failed: %v", rerr)
	}
	return d
}

// stepUntilHandover advances the simulator event by event until the prefix
// leg has handed over to the tail.
func stepUntilHandover(t *testing.T, sim *simtime.Simulator, m *Manager) {
	t.Helper()
	for m.Stats().Handovers == 0 {
		if !sim.Step() {
			t.Fatal("simulation drained before the handover")
		}
	}
}

// tracedOptions asks for a frame trace and client-side path accounting.
func tracedOptions() ServiceOptions {
	path := netsim.DefaultCampusPath()
	return ServiceOptions{TraceFrames: 50, Path: &path, PathSeed: 3}
}

// assertTraced checks that a leg's session ran with the delivery's trace
// and path options.
func assertTraced(t *testing.T, leg string, s *transport.Session) {
	t.Helper()
	if s.FrameTrace().Len() == 0 {
		t.Errorf("%s leg recorded no frame trace", leg)
	}
	if s.ClientFramesArrived() == 0 {
		t.Errorf("%s leg did no client-side path accounting", leg)
	}
}

// TestSplitTailCrashAfterHandoverFailsOverFromTail: once the viewer is on
// the tail leg, a crash of the tail site is a failure *from the tail site*,
// not from the edge that served the prefix.
func TestSplitTailCrashAfterHandoverFailsOverFromTail(t *testing.T) {
	sim, c, m, ec := edgeManager(t, edgecache.Config{})
	m.EnableFailover(DefaultFailoverPolicy())
	var events []FailoverEvent
	m.SetFailoverObserver(func(ev FailoverEvent) { events = append(events, ev) })
	v, _ := c.Engine.Video(1)
	req := qos.Requirement{}
	warmPrefix(t, sim, ec, "srv-a", v.ID)
	sp := firstSplitPlan(t, m, v, req)

	done := 0
	d := executeSplit(t, m, v, req, sp, 0, ServiceOptions{OnDone: func(*Delivery) { done++ }})
	stepUntilHandover(t, sim, m)
	c.Nodes[sp.TailReplica.Site].Fail()
	sim.Run()

	if len(events) != 1 {
		t.Fatalf("failover events = %d, want 1", len(events))
	}
	if ev := events[0]; ev.FromSite != sp.TailReplica.Site || ev.Err != nil {
		t.Fatalf("event = %+v, want a recovery from tail site %s", ev, sp.TailReplica.Site)
	}
	if done != 1 || d.Failovers() != 1 || d.Failed() {
		t.Fatalf("done=%d failovers=%d failed=%v", done, d.Failovers(), d.Failed())
	}
	if c.OutstandingSessions() != 0 {
		t.Fatalf("outstanding sessions = %d", c.OutstandingSessions())
	}
}

// TestCancelDuringFailoverReservation: a Cancel that lands while a failover
// attempt's two-phase reservation is still on the wire rolls the committed
// leases back and ends recovery silently — no completion, no failure hook,
// no lease, prepare or session left behind.
func TestCancelDuringFailoverReservation(t *testing.T) {
	// Video 1 lives on one site other than the query site, so every plan
	// has a participant across the 5 ms control net.
	sim, c, m, querySite, _ := singleCopyCtrlWorld(t)
	m.EnableFailover(DefaultFailoverPolicy())
	events := 0
	m.SetFailoverObserver(func(FailoverEvent) { events++ })
	hooks := 0
	opts := ServiceOptions{
		OnDone:   func(*Delivery) { hooks++ },
		OnFailed: func(*Delivery, error) { hooks++ },
	}
	var d *Delivery
	m.ServiceAsync(querySite, 1, qos.Requirement{MinColorDepth: 8}, opts, func(x *Delivery, err error) {
		if err != nil {
			t.Fatalf("admission: %v", err)
		}
		d = x
	})
	sim.RunUntil(simtime.Seconds(2))
	if d == nil {
		t.Fatal("admission did not conclude")
	}
	d.Session.Fail(errors.New("stream lost"))
	for m.Stats().FailoverAttempts == 0 {
		if !sim.Step() {
			t.Fatal("simulation drained before the failover attempt")
		}
	}
	// The attempt's PREPAREs are in flight on the 5 ms control net.
	d.Cancel()
	sim.Run()

	if hooks != 0 || events != 0 {
		t.Fatalf("hooks fired %d times, failover events %d; want none", hooks, events)
	}
	if st := m.Stats(); st.Failovers != 0 || st.FailoverRejects != 0 || st.BestEffortFallbacks != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if d.Recovering() || d.Failed() {
		t.Fatalf("recovering=%v failed=%v after cancel", d.Recovering(), d.Failed())
	}
	for name, n := range c.Nodes {
		if n.Leases() != 0 || c.Brokers[name].PendingPrepares() != 0 {
			t.Fatalf("%s leaked: leases=%d pending prepares=%d", name, n.Leases(), c.Brokers[name].PendingPrepares())
		}
	}
	if c.OutstandingSessions() != 0 {
		t.Fatalf("outstanding sessions = %d", c.OutstandingSessions())
	}
}

// TestStreamOptionsReachEverySplitLeg: the frame trace and client path
// configured at admission apply to the prefix leg, to the tail leg after
// the handover, and to a resume that starts directly on the tail.
func TestStreamOptionsReachEverySplitLeg(t *testing.T) {
	sim, c, m, ec := edgeManager(t, edgecache.Config{})
	v, _ := c.Engine.Video(1)
	req := qos.Requirement{}
	warmPrefix(t, sim, ec, "srv-a", v.ID)
	sp := firstSplitPlan(t, m, v, req)

	d := executeSplit(t, m, v, req, sp, 0, tracedOptions())
	prefix := d.Session
	stepUntilHandover(t, sim, m)
	sim.Run()
	if d.Session == prefix {
		t.Fatal("delivery still on the prefix session after the handover")
	}
	assertTraced(t, "prefix", prefix)
	assertTraced(t, "tail", d.Session)

	r := executeSplit(t, m, v, req, sp, sp.SplitFrame, tracedOptions())
	sim.Run()
	assertTraced(t, "resumed tail", r.Session)
}

// TestStreamOptionsReachFailoverSession: the session a failover resumes on
// keeps the delivery's frame trace and client path.
func TestStreamOptionsReachFailoverSession(t *testing.T) {
	sim, c := testCluster(t)
	m := failoverManager(c)
	d, err := m.Service("srv-a", 1, vcdRequirement(), tracedOptions())
	if err != nil {
		t.Fatal(err)
	}
	first := d.Session
	sim.ScheduleAt(simtime.Seconds(5), func() { c.Nodes[d.Plan.DeliverySite].Fail() })
	sim.Run()
	if d.Failovers() != 1 || d.Session == first {
		t.Fatalf("failovers = %d; want one resume on a new session", d.Failovers())
	}
	assertTraced(t, "first", first)
	assertTraced(t, "failover", d.Session)
}
