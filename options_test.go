package quasaq

import (
	"strings"
	"testing"
	"time"
)

// TestOpenRejectsInvalidOptions pins up-front validation: every invalid
// setting is refused by Open, before anything is built, with an error
// naming the Options field at fault.
func TestOpenRejectsInvalidOptions(t *testing.T) {
	corpus := StandardCorpus(42)
	failover := func(mutate func(*FailoverPolicy)) *FailoverPolicy {
		p := DefaultFailoverPolicy()
		mutate(&p)
		return &p
	}
	edge := func(names ...string) *EdgeTier {
		e := &EdgeTier{}
		for _, n := range names {
			e.Sites = append(e.Sites, EdgeSite{Name: n})
		}
		return e
	}
	cases := []struct {
		name  string
		opts  Options
		field string
	}{
		{"duplicate site", Options{Sites: []string{"a", "a"}}, "Sites"},
		{"site named farm", Options{Sites: []string{"a", "farm"}}, "Sites"},
		{"negative detection delay", Options{Failover: failover(func(p *FailoverPolicy) { p.DetectionDelay = -1 })}, "Failover"},
		{"negative retry backoff", Options{Failover: failover(func(p *FailoverPolicy) { p.RetryBackoff = -1 })}, "Failover"},
		{"negative max retries", Options{Failover: failover(func(p *FailoverPolicy) { p.MaxRetries = -1 })}, "Failover"},
		{"queue without in-flight slots", Options{AdmissionQueue: &AdmissionQueueConfig{MaxQueue: 4}}, "AdmissionQueue"},
		{"negative queue bound", Options{AdmissionQueue: &AdmissionQueueConfig{MaxInFlight: 1, MaxQueue: -1}}, "AdmissionQueue"},
		{"negative queue deadline", Options{AdmissionQueue: &AdmissionQueueConfig{MaxInFlight: 1, Deadline: -1}}, "AdmissionQueue"},
		{"zero dynamic interval", Options{Videos: corpus, Dynamic: &DynamicReplication{Batch: 1}}, "Dynamic"},
		{"zero dynamic batch", Options{Videos: corpus, Dynamic: &DynamicReplication{Interval: time.Second}}, "Dynamic"},
		{"dynamic without corpus", Options{Dynamic: &DynamicReplication{Interval: time.Second, Batch: 1}}, "Dynamic"},
		{"edge without corpus", Options{Edge: edge("edge-a")}, "Edge"},
		{"edge without sites", Options{Videos: corpus, Edge: edge()}, "Edge"},
		{"edge named like an origin", Options{Videos: corpus, Edge: edge("edge-a", "srv-b")}, "Edge"},
		{"edge named farm", Options{Videos: corpus, Edge: edge("farm")}, "Edge"},
		{"duplicate edge site", Options{Videos: corpus, Edge: edge("edge-a", "edge-a")}, "Edge"},
		{"invalid guardian", Options{Guardian: &GuardianConfig{MaxLoss: 2}}, "Guardian"},
		{"invalid farm", Options{Farm: &FarmConfig{Classes: []WorkerClass{{Name: "w", Speed: -1}}}}, "Farm"},
		{"farm without a standing worker", Options{Farm: &FarmConfig{Classes: []WorkerClass{{Name: "w", Speed: 1, MaxWorkers: 4}}}}, "Farm"},
		{"invalid control plane", Options{Control: ControlPlaneConfig{Loss: 1}}, "Control"},
	}
	for _, c := range cases {
		db, err := Open(c.opts)
		if err == nil {
			t.Errorf("%s: Open accepted the options", c.name)
			continue
		}
		if db != nil {
			t.Errorf("%s: Open returned a DB alongside %v", c.name, err)
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.field)
		}
	}
}

// matrixTiers are the optional tiers the feature matrix toggles, each as a
// setter on Options.
var matrixTiers = []struct {
	name string
	on   func(*Options)
}{
	{"async-control", func(o *Options) { o.Control = TestbedControlPlane() }},
	{"failover", func(o *Options) { p := DefaultFailoverPolicy(); o.Failover = &p }},
	{"queue", func(o *Options) {
		o.AdmissionQueue = &AdmissionQueueConfig{MaxInFlight: 2, MaxQueue: 3, Deadline: time.Second}
	}},
	{"guardian", func(o *Options) { o.Guardian = &GuardianConfig{} }},
	{"farm", func(o *Options) {
		o.Farm = &FarmConfig{Classes: []WorkerClass{{Name: "w", Speed: 2, MinWorkers: 1, MaxWorkers: 2}}}
	}},
	{"edge", func(o *Options) {
		o.Edge = &EdgeTier{
			Sites:  []EdgeSite{{Name: "edge-a"}, {Name: "edge-b"}},
			Config: EdgeConfig{MinHits: 1, PrefixGOPs: 4, Interval: time.Second, PromoteHits: 3},
		}
	}},
	{"dynamic", func(o *Options) { o.Dynamic = &DynamicReplication{Interval: 2 * time.Second, Batch: 2} }},
	{"tracing", func(o *Options) { o.Tracing = true }},
}

// TestFeatureMatrixDrains opens every subset of the optional tiers, serves
// the same short asynchronous workload across a site crash and restore,
// and drains it: RunUntilIdle must return, every admission callback must
// fire exactly once, every admitted delivery must conclude, and no session
// or reservation may outlive the drain on any origin, edge or farm site.
func TestFeatureMatrixDrains(t *testing.T) {
	corpus := StandardCorpus(42)[:6]
	sched, err := ParseFaultSchedule("3s node-crash srv-b\n8s node-restart srv-b\n")
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Requirement{
		{MinResolution: ResVCD, MaxResolution: ResCIF},
		{MinResolution: ResQCIF, MaxResolution: ResVCD, MinFrameRate: 10},
		{MinResolution: ResSD},
	}
	for mask := 0; mask < 1<<len(matrixTiers); mask++ {
		opts := Options{SingleCopyReplication: true, Videos: corpus}
		var names []string
		for i, tier := range matrixTiers {
			if mask&(1<<i) != 0 {
				tier.on(&opts)
				names = append(names, tier.name)
			}
		}
		label := strings.Join(names, "+")
		if label == "" {
			label = "plain"
		}
		db, err := Open(opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := db.InjectFaults(sched); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		const n = 12
		calls := make([]int, n)
		var admitted []*Delivery
		for i := 0; i < n; i++ {
			i := i
			site := db.Sites()[i%len(db.Sites())]
			db.DeliverAsync(site, corpus[i%3].ID, reqs[i%len(reqs)], func(d *Delivery, err error) {
				calls[i]++
				if err == nil {
					admitted = append(admitted, d)
				}
			})
			db.Advance(time.Second)
		}
		db.RunUntilIdle()

		for i, c := range calls {
			if c != 1 {
				t.Errorf("%s: request %d callback fired %d times", label, i, c)
			}
		}
		for _, d := range admitted {
			if !d.Failed() && !d.Session.Done() {
				t.Errorf("%s: delivery of video %d neither finished nor failed", label, d.Video().ID)
			}
		}
		if out := db.Stats().Outstanding; out != 0 {
			t.Errorf("%s: %d sessions outstanding after the drain", label, out)
		}
		sites := append(append([]string(nil), db.Sites()...), db.EdgeSites()...)
		if opts.Farm != nil {
			sites = append(sites, "farm")
		}
		for _, s := range sites {
			usage, capacity, err := db.SiteUsage(s)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// Usage is a running float sum of reservations and releases, so
			// an empty site may keep rounding residue; anything above a
			// billionth of capacity is a leaked reservation.
			for k := range usage {
				if usage[k] > 1e-9*capacity[k] {
					t.Errorf("%s: site %s still holds %g of %g", label, s, usage, capacity)
					break
				}
			}
		}
	}
}
