package experiments

import (
	"fmt"
	"strings"

	"quasaq/internal/core"
	"quasaq/internal/media"
	"quasaq/internal/netsim"
	"quasaq/internal/replication"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/workload"
)

// DynamicPoint is one configuration of the dynamic-replication comparison:
// its throughput series plus the replicator's own outcomes (zero for the
// static configurations).
type DynamicPoint struct {
	Series          *Series
	ReplicasCreated int
	AdmitFirstHalf  float64 `merge:"mean"`
	AdmitSecondHalf float64 `merge:"mean"`
	// Replicas counts merged replica runs (0 or 1 means a single run).
	Replicas int `merge:"reps"`
}

// Dynamic compares QuaSAQ starting from single-copy storage with and
// without the online replicator (the §2 item 1 extension) against offline
// full replication, on identical query streams: the replicator should
// materialize the demanded quality ladder over time and close most of the
// throughput gap to the full ladder.
var Dynamic = &Spec[ThroughputConfig, *DynamicPoint]{
	name:   "dynamic",
	inAll:  true,
	config: fig6Config,
	points: func(ThroughputConfig) []runner.Point {
		return []runner.Point{
			{Key: "single-static", Label: "single-copy, static"},
			{Key: "single-dynamic", Label: "single-copy + dynamic"},
			{Key: "full", Label: "offline full ladder"},
		}
	},
	run: func(cfg ThroughputConfig, key string, seed int64) (*DynamicPoint, error) {
		cfg.Seed = seed
		switch key {
		case "single-dynamic":
			return runDynamicSingle(cfg)
		case "single-static":
			cfg.SingleCopy = true
		case "full":
		default:
			return nil, fmt.Errorf("experiments: unknown dynamic variant %q", key)
		}
		series, err := RunThroughput(SysQuaSAQ, cfg)
		if err != nil {
			return nil, err
		}
		return &DynamicPoint{Series: series}, nil
	},
	report: func(_ ThroughputConfig, points []*DynamicPoint) string { return FormatDynamic(points) },
}

// runDynamicSingle is the hermetic single-copy + online-replication cell:
// it builds its own world (the replicator must be wired into the serving
// path, so it cannot reuse RunThroughput) and reports the replicator's
// outcomes next to the throughput series.
func runDynamicSingle(cfg ThroughputConfig) (*DynamicPoint, error) {
	sim := simtime.NewSimulator()
	cluster := core.TestbedCluster(sim)
	corpus := media.StandardCorpus(uint64(cfg.Seed))
	if _, err := cluster.LoadCorpus(corpus, replication.SingleCopyPolicy()); err != nil {
		return nil, err
	}
	sites := make([]replication.Site, 0, 3)
	for _, s := range cluster.Sites() {
		sites = append(sites, replication.Site{Name: s, Blobs: cluster.Blobs[s]})
	}
	dyn := replication.NewDynamic(sim, cluster.Dir, corpus, sites)
	links := map[string]*netsim.Link{}
	for name, node := range cluster.Nodes {
		links[name] = node.Link()
	}
	dyn.SetLinks(links)
	dyn.Start(simtime.Seconds(20), 4)

	out := &Series{System: SysQuaSAQ, Bucket: cfg.Bucket}
	mgr := core.NewManager(cluster, core.LRB{})
	var admitTimes []simtime.Time
	gen := paperWorkload(cfg.Seed, cluster, corpus)
	gen.Drive(sim, cfg.Horizon, func(r workload.Request) {
		out.Queries++
		dyn.Observe(r.Video, r.Req)
		if _, err := mgr.Service(r.Site, r.Video, r.Req, core.ServiceOptions{
			OnDone: func(d *core.Delivery) {
				out.Completed++
				if d.Session.QoSOK() {
					out.QoSOK++
				}
			},
		}); err != nil {
			out.Rejected++
		} else {
			out.Admitted++
			admitTimes = append(admitTimes, sim.Now())
		}
	})
	samples := int(cfg.Horizon / cfg.Bucket)
	for i := 1; i <= samples; i++ {
		at := simtime.Time(i) * cfg.Bucket
		sim.ScheduleAt(at, func() {
			out.Times = append(out.Times, simtime.ToSeconds(sim.Now()))
			out.Outstanding = append(out.Outstanding, float64(cluster.OutstandingSessions()))
		})
	}
	sim.RunUntil(cfg.Horizon)

	half := cfg.Horizon / 2
	var first, second int
	for _, t := range admitTimes {
		if t < half {
			first++
		} else {
			second++
		}
	}
	halfSecs := simtime.ToSeconds(half)
	return &DynamicPoint{
		Series:          out,
		ReplicasCreated: dyn.Created(),
		AdmitFirstHalf:  float64(first) / halfSecs,
		AdmitSecondHalf: float64(second) / halfSecs,
	}, nil
}

// FormatDynamic renders the comparison of Dynamic's three points. The
// admission-rate halves show convergence as a higher second half.
func FormatDynamic(points []*DynamicPoint) string {
	static, dynamic, full := points[0], points[1], points[2]
	var b strings.Builder
	b.WriteString("Dynamic replication (extension of §2 item 1: single-copy start)\n")
	fmt.Fprintf(&b, "%-28s %10s %10s %10s\n", "Configuration", "SteadyOut", "Admitted", "QoS-OK")
	row := func(name string, s *Series) {
		fmt.Fprintf(&b, "%-28s %10.1f %10s %10s\n",
			name, s.SteadyOutstanding(), fmtCount(s.Admitted, s.Reps()), fmtCount(s.QoSOK, s.Reps()))
	}
	row("single-copy, static", static.Series)
	row("single-copy + dynamic", dynamic.Series)
	row("offline full ladder", full.Series)
	fmt.Fprintf(&b, "replicas materialized online: %d\n", dynamic.ReplicasCreated/max(1, dynamic.Replicas))
	fmt.Fprintf(&b, "dynamic admission rate: %.2f/s first half -> %.2f/s second half\n",
		dynamic.AdmitFirstHalf, dynamic.AdmitSecondHalf)
	return b.String()
}
