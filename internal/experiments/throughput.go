package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"quasaq/internal/core"
	"quasaq/internal/deploy"
	"quasaq/internal/media"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/stats"
	"quasaq/internal/transport"
	"quasaq/internal/workload"
)

// SystemKind selects which delivery system a throughput run exercises.
type SystemKind int

// The three systems compared in Figure 6, plus QuaSAQ cost-model variants
// for Figure 7 and the ablations.
const (
	SysVDBMS SystemKind = iota
	SysQoSAPI
	SysQuaSAQ
	SysQuaSAQRandom
	SysQuaSAQMinSum
	SysQuaSAQStatic
)

// String names the system as the paper's legends do.
func (s SystemKind) String() string {
	switch s {
	case SysVDBMS:
		return "VDBMS"
	case SysQoSAPI:
		return "VDBMS+QoS API"
	case SysQuaSAQ:
		return "VDBMS+QuaSAQ"
	case SysQuaSAQRandom:
		return "QuaSAQ (Random)"
	case SysQuaSAQMinSum:
		return "QuaSAQ (Min-Sum)"
	case SysQuaSAQStatic:
		return "QuaSAQ (Static)"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(s))
	}
}

// ThroughputConfig parameterizes a throughput run.
type ThroughputConfig struct {
	Seed    int64
	Horizon simtime.Time // total simulated time
	Bucket  simtime.Time // sampling bucket for the series
	// SingleCopy switches replication to the single-copy ablation.
	SingleCopy bool
}

// DefaultFig6Config is the paper's Figure 6 setup: 1000 seconds, queries
// every ~1 s.
func DefaultFig6Config() ThroughputConfig {
	return ThroughputConfig{Seed: 11, Horizon: simtime.Seconds(1000), Bucket: simtime.Seconds(20)}
}

// DefaultFig7Config is the paper's Figure 7 setup: 7000 seconds.
func DefaultFig7Config() ThroughputConfig {
	return ThroughputConfig{Seed: 13, Horizon: simtime.Seconds(7000), Bucket: simtime.Seconds(100)}
}

// Series is one system's throughput trajectory. After a replica merge the
// counters hold totals and the sampled series hold element-wise sums over
// Replicas runs; the accessors and exporters normalize back to per-replica
// means, so a single-replica series reads exactly as before.
type Series struct {
	System SystemKind   `merge:"first"`
	Name   string       // display override (ablation variants); System.String() when empty
	Bucket simtime.Time `merge:"first"`
	Times  []float64    `merge:"first"` // bucket end times, seconds

	Outstanding []float64 // sampled outstanding sessions (Fig 6a / 7a)
	SucceededPM []float64 // QoS-succeeding completions per minute (Fig 6b)
	CumRejects  []float64 // cumulative rejected queries (Fig 7b)

	Queries   int
	Admitted  int
	Rejected  int
	Completed int
	QoSOK     int

	// Replicas counts the replica runs folded into this series (0 or 1
	// means a single run).
	Replicas int `merge:"reps"`
}

// DisplayName is the legend label: the variant name when set, else the
// system's paper name.
func (s *Series) DisplayName() string {
	if s.Name != "" {
		return s.Name
	}
	return s.System.String()
}

// Reps returns the number of replica runs folded into the series, at least 1.
func (s *Series) Reps() int {
	if s.Replicas < 1 {
		return 1
	}
	return s.Replicas
}

// SteadyOutstanding averages the outstanding-session samples over the last
// half of the run: the "stable stage" the paper compares (§5.2). For a
// merged series this is the cross-replica mean.
func (s *Series) SteadyOutstanding() float64 {
	n := len(s.Outstanding)
	if n == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Outstanding[n/2:] {
		sum += v
	}
	return sum / float64(n-n/2) / float64(s.Reps())
}

// RunThroughput runs one system against the paper's workload.
func RunThroughput(sys SystemKind, cfg ThroughputConfig) (*Series, error) {
	out, _, err := runThroughput(sys, cfg, nil, nil)
	return out, err
}

// runThroughput is RunThroughput in a world whose online replicator dyn
// configures (nil = off); onAdmit, when set, sees each admission's time.
func runThroughput(sys SystemKind, cfg ThroughputConfig, dyn *deploy.DynamicReplication, onAdmit func(simtime.Time)) (*Series, *deploy.World, error) {
	var model core.CostModel
	switch sys {
	case SysQuaSAQRandom:
		model = core.NewRandom(simtime.NewRand(cfg.Seed + 1000))
	case SysQuaSAQMinSum:
		model = core.MinSum{}
	case SysQuaSAQStatic:
		model = core.StaticCheapest{}
	}
	corpus := media.StandardCorpus(uint64(cfg.Seed))
	w, err := deploy.Open(deploy.Config{SingleCopyReplication: cfg.SingleCopy, Videos: corpus, Model: model, Dynamic: dyn})
	if err != nil {
		return nil, nil, err
	}
	sim, cluster := w.Sim, w.Cluster

	out := &Series{System: sys, Bucket: cfg.Bucket}
	succeeded := stats.NewTimeSeries(cfg.Bucket)
	rejects := stats.NewTimeSeries(cfg.Bucket)

	onSessionDone := func(sess *transport.Session) {
		out.Completed++
		if sess.QoSOK() {
			out.QoSOK++
			succeeded.Observe(sess.Finished(), 1)
		}
	}

	var serve func(site string, id media.VideoID, req workload.Request) error
	switch sys {
	case SysVDBMS:
		svc := core.NewVDBMSService(cluster)
		serve = func(site string, id media.VideoID, _ workload.Request) error {
			_, err := svc.Service(site, id, 0, onSessionDone)
			return err
		}
	case SysQoSAPI:
		svc := core.NewQoSAPIService(cluster)
		serve = func(site string, id media.VideoID, _ workload.Request) error {
			_, err := svc.Service(site, id, 0, onSessionDone)
			return err
		}
	default:
		serve = func(site string, id media.VideoID, req workload.Request) error {
			_, err := w.Manager.Service(site, id, req.Req, core.ServiceOptions{
				OnDone: func(d *core.Delivery) { onSessionDone(d.Session) },
			})
			return err
		}
	}

	gen := paperWorkload(cfg.Seed, cluster, corpus)
	gen.Drive(sim, cfg.Horizon, func(r workload.Request) {
		out.Queries++
		w.Observe(r.Site, r.Video, r.Req)
		if err := serve(r.Site, r.Video, r); err != nil {
			out.Rejected++
			rejects.Observe(sim.Now(), 1)
		} else {
			out.Admitted++
			if onAdmit != nil {
				onAdmit(sim.Now())
			}
		}
	})

	// Sample outstanding sessions once per bucket.
	samples := int(cfg.Horizon / cfg.Bucket)
	for i := 1; i <= samples; i++ {
		at := simtime.Time(i) * cfg.Bucket
		sim.ScheduleAt(at, func() {
			out.Times = append(out.Times, simtime.ToSeconds(sim.Now()))
			out.Outstanding = append(out.Outstanding, float64(cluster.OutstandingSessions()))
		})
	}
	sim.RunUntil(cfg.Horizon)

	perMinFactor := 60 / simtime.ToSeconds(cfg.Bucket)
	for i := 0; i < samples; i++ {
		out.SucceededPM = append(out.SucceededPM, succeeded.Sum(i)*perMinFactor)
	}
	cum := 0.0
	for i := 0; i < samples; i++ {
		cum += rejects.Sum(i)
		out.CumRejects = append(out.CumRejects, cum)
	}
	return out, w, nil
}

// ThroughputVariant is one point of a throughput sweep: a delivery system
// plus the replication ablation toggle.
type ThroughputVariant struct {
	Key        string
	Label      string // display name; Sys.String() when empty
	Sys        SystemKind
	SingleCopy bool
}

// The throughput-family grids sweep RunThroughput over system variants under
// one workload config. All variants of one replica share the same seed, so
// cross-system comparisons stay paired exactly as the paper's "identical
// query streams" protocol demands.
var (
	// Fig6 is Figure 6's grid: the three systems of the paper.
	Fig6 = throughputSpec("fig6", true, fig6Config,
		titled("Figure 6: throughput of different video database systems (%.0f s)"),
		ThroughputVariant{Key: "vdbms", Sys: SysVDBMS},
		ThroughputVariant{Key: "qosapi", Sys: SysQoSAPI},
		ThroughputVariant{Key: "quasaq", Sys: SysQuaSAQ})
	// Fig7 is Figure 7's grid: randomized vs LRB plan selection.
	Fig7 = throughputSpec("fig7", true, fig7Config,
		titled("Figure 7: QuaSAQ with different cost models (%.0f s)"),
		ThroughputVariant{Key: "random", Sys: SysQuaSAQRandom},
		ThroughputVariant{Key: "lrb", Sys: SysQuaSAQ})
	// Throughput is the full system sweep: every delivery system and cost
	// model under one workload. Not part of -exp all: it subsumes fig6 and
	// the cost-model ablations.
	Throughput = throughputSpec("throughput", false, fig6Config,
		titled("Throughput: full system sweep (%.0f s)"),
		ThroughputVariant{Key: "vdbms", Sys: SysVDBMS},
		ThroughputVariant{Key: "qosapi", Sys: SysQoSAPI},
		ThroughputVariant{Key: "quasaq", Sys: SysQuaSAQ},
		ThroughputVariant{Key: "random", Sys: SysQuaSAQRandom},
		ThroughputVariant{Key: "minsum", Sys: SysQuaSAQMinSum},
		ThroughputVariant{Key: "static", Sys: SysQuaSAQStatic})
	// Ablation is the cost-model and replication ablation grid.
	Ablation = throughputSpec("ablation", true, fig6Config, formatAblation,
		ThroughputVariant{Key: "lrb", Sys: SysQuaSAQ},
		ThroughputVariant{Key: "random", Sys: SysQuaSAQRandom},
		ThroughputVariant{Key: "minsum", Sys: SysQuaSAQMinSum},
		ThroughputVariant{Key: "static", Sys: SysQuaSAQStatic},
		ThroughputVariant{Key: "single-copy", Label: "QuaSAQ (single-copy)", Sys: SysQuaSAQ, SingleCopy: true})
)

func throughputSpec(name string, inAll bool, config func(Settings) (ThroughputConfig, error),
	report func(ThroughputConfig, []*Series) string, variants ...ThroughputVariant) *Spec[ThroughputConfig, *Series] {
	return &Spec[ThroughputConfig, *Series]{
		name:   name,
		inAll:  inAll,
		config: config,
		points: func(ThroughputConfig) []runner.Point {
			pts := make([]runner.Point, len(variants))
			for i, v := range variants {
				pts[i] = runner.Point{Key: v.Key, Label: v.Label}
				if v.Label == "" {
					pts[i].Label = v.Sys.String()
				}
			}
			return pts
		},
		run: func(cfg ThroughputConfig, key string, seed int64) (*Series, error) {
			for _, v := range variants {
				if v.Key != key {
					continue
				}
				cfg.Seed = seed
				cfg.SingleCopy = cfg.SingleCopy || v.SingleCopy
				out, err := RunThroughput(v.Sys, cfg)
				if err != nil {
					return nil, err
				}
				if v.Label != "" {
					out.Name = v.Label
				}
				return out, nil
			}
			return nil, fmt.Errorf("experiments: unknown throughput variant %q", key)
		},
		table:  func(_ ThroughputConfig, series []*Series) Table { return SeriesTable(series) },
		report: report,
	}
}

func fig6Config(s Settings) (ThroughputConfig, error) {
	cfg := DefaultFig6Config()
	cfg.Seed = s.Seed
	cfg.Horizon = simtime.Seconds(s.Fig6Horizon)
	return cfg, nil
}

func fig7Config(s Settings) (ThroughputConfig, error) {
	cfg := DefaultFig7Config()
	cfg.Seed = s.Seed
	cfg.Horizon = simtime.Seconds(s.Fig7Horizon)
	return cfg, nil
}

// titled reports a sweep under a title that names its horizon.
func titled(title string) func(ThroughputConfig, []*Series) string {
	return func(cfg ThroughputConfig, series []*Series) string {
		return FormatThroughput(fmt.Sprintf(title, simtime.ToSeconds(cfg.Horizon)), series)
	}
}

func formatAblation(_ ThroughputConfig, series []*Series) string {
	return FormatThroughput("Ablations: cost models + single-copy replication", series) +
		fmt.Sprintf("\nSingle-copy replication ablation: steady outstanding %.1f (vs %.1f with the full ladder)",
			series[len(series)-1].SteadyOutstanding(), series[0].SteadyOutstanding())
}

// SeriesTable renders throughput series as a tidy table: time, system,
// outstanding, succeeded_per_min, cum_rejects. Replica-merged series emit
// cross-replica means.
func SeriesTable(series []*Series) Table {
	t := Table{Header: []string{"time_s", "system", "outstanding", "succeeded_per_min", "cum_rejects"}}
	for _, s := range series {
		reps := float64(s.Reps())
		for i := range s.Outstanding {
			sec := float64(i+1) * simtime.ToSeconds(s.Bucket)
			t.Rows = append(t.Rows, []string{
				strconv.FormatFloat(sec, 'f', 1, 64),
				s.DisplayName(),
				strconv.FormatFloat(s.Outstanding[i]/reps, 'f', 1, 64),
				strconv.FormatFloat(at(s.SucceededPM, i)/reps, 'f', 2, 64),
				strconv.FormatFloat(at(s.CumRejects, i)/reps, 'f', 1, 64),
			})
		}
	}
	return t
}

func at(xs []float64, i int) float64 {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}

// FormatThroughput renders series the way the paper's figures are read:
// steady-state outstanding sessions, success rates, rejects. Counters of a
// replica-merged series render as cross-replica means.
func FormatThroughput(title string, series []*Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", title)
	if len(series) > 0 && series[0].Reps() > 1 {
		fmt.Fprintf(&b, "  (mean of %d replicas)", series[0].Reps())
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-20s %8s %9s %9s %10s %12s %12s\n",
		"System", "Queries", "Admitted", "Rejected", "Completed", "QoS-OK/min", "SteadyOut")
	for _, s := range series {
		reps := s.Reps()
		dur := simtime.ToSeconds(s.Bucket) * float64(len(s.SucceededPM))
		perMin := 0.0
		if dur > 0 {
			perMin = float64(s.QoSOK) / float64(reps) / dur * 60
		}
		fmt.Fprintf(&b, "%-20s %8s %9s %9s %10s %12.1f %12.1f\n",
			s.DisplayName(), fmtCount(s.Queries, reps), fmtCount(s.Admitted, reps),
			fmtCount(s.Rejected, reps), fmtCount(s.Completed, reps), perMin, s.SteadyOutstanding())
	}
	b.WriteString("\nOutstanding sessions over time:\n")
	for _, s := range series {
		tr := &stats.Trace{}
		for i, v := range s.Outstanding {
			tr.Add(simtime.Time(i), v/float64(s.Reps()))
		}
		fmt.Fprintf(&b, "\n%s\n%s", s.DisplayName(), tr.ASCIIPlot(80, 6, 0))
	}
	return b.String()
}
