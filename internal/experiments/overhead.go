package experiments

import (
	"fmt"
	"strings"
	"time"

	"quasaq/internal/core"
	"quasaq/internal/deploy"
	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
	"quasaq/internal/transport"
	"quasaq/internal/workload"
)

// OverheadResult reproduces the §5.2 overhead analysis: QuaSAQ's own cost
// is (a) the query-time planning work (the paper: "a few milliseconds ...
// negligible") and (b) the soft-real-time scheduler's maintenance (the
// paper measured 0.16 ms per 10 ms quantum, 1.6%, on its hardware).
// Replica merges sum the counters and average the rates over replicas
// (every replica times the same number of queries).
type OverheadResult struct {
	Queries           int
	PlansPerQuery     float64 `merge:"mean"`
	PlanMicrosPerQry  float64 `merge:"mean"` // cold-cache wall-clock planning+admission cost per query
	WarmMicrosPerQry  float64 `merge:"mean"` // same workload replayed against a warm candidate cache
	CacheHits         uint64  // plan-cache hits over both passes
	CacheMisses       uint64  // plan-cache misses (cold fills)
	SchedulerOverhead float64 `merge:"mean"` // fraction of CPU spent on dispatch bookkeeping
	DispatchesPerSec  float64 `merge:"mean"`

	// Replicas counts merged replica runs (0 or 1 means a single run).
	Replicas int `merge:"reps"`
}

type overheadConfig struct {
	Seed    int64
	Queries int
}

// Overhead times the planner and scheduler bookkeeping; replicas rerun the
// measurement on independent workload seeds and average.
var Overhead = &Spec[overheadConfig, *OverheadResult]{
	name:  "overhead",
	inAll: true,
	config: func(s Settings) (overheadConfig, error) {
		return overheadConfig{Seed: s.Seed, Queries: s.OverheadQueries}, nil
	},
	points: onePoint[overheadConfig]("overhead", "planner + scheduler overhead"),
	run: func(cfg overheadConfig, _ string, seed int64) (*OverheadResult, error) {
		return RunOverhead(seed, cfg.Queries)
	},
	report: func(_ overheadConfig, rs []*OverheadResult) string { return FormatOverhead(rs[0]) },
}

// RunOverhead measures both overheads.
func RunOverhead(seed int64, queries int) (*OverheadResult, error) {
	if queries <= 0 {
		queries = 500
	}
	// (a) Planning cost: wall-clock time of Service calls (plan
	// enumeration + ranking + admission), amortized per query. The
	// workload is run twice with the same request sequence: the first
	// pass fills the candidate cache (cold), the second replays against
	// it (warm) — the cost split the staged plan pipeline buys.
	corpus := media.StandardCorpus(uint64(seed))
	w, err := deploy.Open(deploy.Config{Videos: corpus})
	if err != nil {
		return nil, err
	}
	mgr := w.Manager
	pass := func() time.Duration {
		gen := workload.New(workload.Config{Seed: seed, Videos: corpus, Sites: w.Cluster.Sites()})
		begin := time.Now()
		for i := 0; i < queries; i++ {
			r := gen.Next()
			d, err := mgr.Service(r.Site, r.Video, r.Req, core.ServiceOptions{})
			if err == nil {
				// Cancel immediately: we are timing the planner, not the
				// streaming.
				d.Cancel()
			}
		}
		return time.Since(begin)
	}
	elapsed := pass()
	warm := pass()
	st := mgr.Stats()
	cst := mgr.PlanCache().Stats()

	// (b) Scheduler overhead: stream under the paper's measured 0.16 ms
	// dispatch cost and account the bookkeeping share of the busy CPU.
	w2, err := deploy.Open(deploy.Config{Videos: corpus})
	if err != nil {
		return nil, err
	}
	node := w2.Cluster.Nodes["srv-a"]
	node.CPU().DispatchOverhead = 160 * time.Microsecond
	req := qos.Requirement{MinResolution: qos.ResDVD, MinFrameRate: 23}
	for i := 0; i < 4; i++ {
		if _, err := w2.Manager.Service("srv-a", media.VideoID(7), req, core.ServiceOptions{}); err != nil {
			return nil, err
		}
	}
	horizon := simtime.Seconds(60)
	w2.Sim.RunUntil(horizon)
	dispatches := node.CPU().Dispatches()
	overheadTime := simtime.Time(dispatches) * 160 * time.Microsecond

	return &OverheadResult{
		Queries:           queries,
		PlansPerQuery:     float64(st.PlansGenerated) / float64(st.Queries),
		PlanMicrosPerQry:  float64(elapsed.Microseconds()) / float64(queries),
		WarmMicrosPerQry:  float64(warm.Microseconds()) / float64(queries),
		CacheHits:         cst.Hits,
		CacheMisses:       cst.Misses,
		SchedulerOverhead: float64(overheadTime) / float64(horizon),
		DispatchesPerSec:  float64(dispatches) / simtime.ToSeconds(horizon),
	}, nil
}

// FormatOverhead renders the overhead numbers next to the paper's.
func FormatOverhead(r *OverheadResult) string {
	var b strings.Builder
	b.WriteString("QuaSAQ overhead (paper §5.2)\n")
	fmt.Fprintf(&b, "  plans generated per query:      %.1f\n", r.PlansPerQuery)
	fmt.Fprintf(&b, "  planning cost per query (cold): %.0f us (paper: \"a few milliseconds\" on 2002 hardware)\n", r.PlanMicrosPerQry)
	fmt.Fprintf(&b, "  planning cost per query (warm): %.0f us (candidate cache: %d hits, %d misses)\n",
		r.WarmMicrosPerQry, r.CacheHits, r.CacheMisses)
	fmt.Fprintf(&b, "  scheduler dispatches per sec:   %.0f\n", r.DispatchesPerSec)
	fmt.Fprintf(&b, "  scheduler maintenance overhead: %.2f%% of one CPU (paper: 1.6%%, 0.16 ms per 10 ms)\n", 100*r.SchedulerOverhead)
	return b.String()
}

// StreamCPUShare is a small helper used by documentation tests: the CPU
// share of one full-quality stream, exposing the calibration constant.
func StreamCPUShare() float64 {
	q := media.LadderQuality(media.LinkLAN, 23.97)
	return transport.StreamCPUCost(media.NewVariant(q), 23.97)
}
