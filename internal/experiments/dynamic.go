package experiments

import (
	"fmt"
	"strings"

	"quasaq/internal/deploy"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
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
// the throughput run with the replicator wired into the serving path,
// reporting the replicator's outcomes next to the throughput series.
func runDynamicSingle(cfg ThroughputConfig) (*DynamicPoint, error) {
	cfg.SingleCopy = true
	half := cfg.Horizon / 2
	var first, second int
	out, w, err := runThroughput(SysQuaSAQ, cfg, &deploy.DynamicReplication{Interval: simtime.Seconds(20), Batch: 4},
		func(at simtime.Time) {
			if at < half {
				first++
			} else {
				second++
			}
		})
	if err != nil {
		return nil, err
	}
	halfSecs := simtime.ToSeconds(half)
	return &DynamicPoint{
		Series:          out,
		ReplicasCreated: w.Dynamic.Created(),
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
