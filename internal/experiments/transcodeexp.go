package experiments

import (
	"fmt"
	"strings"

	"quasaq/internal/core"
	"quasaq/internal/deploy"
	"quasaq/internal/media"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/stats"
	"quasaq/internal/transcode"
	"quasaq/internal/workload"
)

// The transcode experiment sweeps worker-class mixes of the elastic
// transcoding farm against the inline-transcoding baseline and reads off
// the Pareto trade: dollars spent on the fleet versus the p99 startup delay
// and deadline-miss rate the streams observe. The corpus is stored
// single-copy — only the original quality exists — so nearly every
// admitted delivery carries a transcode stage, and every farm variant has
// to convert GOPs just-in-time ahead of each stream's play point.

// TranscodeVariant is one point of the sweep: a farm configuration, or the
// flat baseline (nil Farm) where every plan transcodes inline on the
// delivery site's reserved CPU.
type TranscodeVariant struct {
	Key   string
	Label string
	Farm  *transcode.FarmConfig // nil = no farm (inline baseline)
}

// TranscodeConfig parameterizes the sweep.
type TranscodeConfig struct {
	Seed     int64
	BaseLoad float64      // queries per second
	Horizon  simtime.Time // arrival window
	Variants []TranscodeVariant
}

// DefaultTranscodeConfig compares the flat baseline, a neutral farm (the
// golden-equivalence control), a fast/expensive fleet, a slow/cheap fleet,
// and a mixed fleet under the autoscaler — ≥2 heterogeneous mixes plus the
// two ends of the cost axis.
func DefaultTranscodeConfig() TranscodeConfig {
	fast := transcode.WorkerClass{
		Name:           "fast",
		Speed:          4,
		Startup:        simtime.Seconds(0.25),
		DollarsPerHour: 2.4,
		MaxWorkers:     6,
	}
	econ := transcode.WorkerClass{
		Name:           "econ",
		Speed:          0.5,
		Startup:        simtime.Seconds(3),
		DollarsPerHour: 0.3,
		MaxWorkers:     6,
	}
	scale := transcode.AutoscaleConfig{Interval: simtime.Seconds(2)}
	one := func(c transcode.WorkerClass) *transcode.FarmConfig {
		c.MinWorkers = 1
		return &transcode.FarmConfig{Classes: []transcode.WorkerClass{c}, Autoscale: scale}
	}
	mixedEcon := econ
	mixedEcon.MinWorkers = 1
	return TranscodeConfig{
		Seed:     29,
		BaseLoad: 2,
		Horizon:  simtime.Seconds(150),
		Variants: []TranscodeVariant{
			{Key: "flat", Label: "inline transcoding (no farm)"},
			{Key: "neutral", Label: "neutral farm (instant, $0)", Farm: &transcode.FarmConfig{}},
			{Key: "fast", Label: "fast fleet (4x, $2.40/h)", Farm: one(fast)},
			{Key: "econ", Label: "econ fleet (0.5x, $0.30/h)", Farm: one(econ)},
			{Key: "mixed", Label: "mixed fleet + autoscaler", Farm: &transcode.FarmConfig{
				Classes:   []transcode.WorkerClass{fast, mixedEcon},
				Autoscale: scale,
			}},
		},
	}
}

// TranscodePoint is one variant's outcome.
type TranscodePoint struct {
	Variant string

	Tally
	FarmRouted int // completed sessions whose GOPs came from the farm

	// Startup pools farm-routed sessions' startup delays (first transcoded
	// GOP ready after session start), milliseconds.
	Startup *stats.Sample

	Farm transcode.FarmStats

	// Replicas counts merged replica runs (0 or 1 means a single run).
	Replicas int `merge:"reps"`
}

func (p *TranscodePoint) reps() int { return max(1, p.Replicas) }

// Merge folds another replica's point in field by field, except the farm's
// per-class rows, which pair by name in p's order with o's extras appended
// so merges stay deterministic.
func (p *TranscodePoint) Merge(o *TranscodePoint) {
	classes := append([]transcode.ClassStats(nil), p.Farm.PerClass...)
	for _, cb := range o.Farm.PerClass {
		found := false
		for i := range classes {
			if classes[i].Name == cb.Name {
				classes[i].Workers += cb.Workers
				classes[i].BusySeconds += cb.BusySeconds
				found = true
				break
			}
		}
		if !found {
			classes = append(classes, cb)
		}
	}
	mergeFields(p, o)
	p.Farm.PerClass = classes
}

// variantByKey finds a sweep variant (nil if absent).
func (c TranscodeConfig) variantByKey(key string) *TranscodeVariant {
	for i := range c.Variants {
		if c.Variants[i].Key == key {
			return &c.Variants[i]
		}
	}
	return nil
}

// RunTranscodePoint runs one variant in a hermetic world and drains it
// completely before counters are read.
func RunTranscodePoint(cfg TranscodeConfig, key string, seed int64) (*TranscodePoint, error) {
	v := cfg.variantByKey(key)
	if v == nil {
		return nil, fmt.Errorf("experiments: unknown transcode variant %q", key)
	}
	if cfg.BaseLoad <= 0 {
		return nil, fmt.Errorf("experiments: non-positive base load %v", cfg.BaseLoad)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("experiments: non-positive horizon %v", cfg.Horizon)
	}

	corpus := media.StandardCorpus(uint64(seed))
	// Single-copy storage: only the original quality exists, so delivering
	// any lower tier forces an online transcode — the farm's workload.
	w, err := deploy.Open(deploy.Config{SingleCopyReplication: true, Videos: corpus, Farm: v.Farm})
	if err != nil {
		return nil, err
	}

	out := &TranscodePoint{Variant: key, Startup: &stats.Sample{}}
	gen := workload.New(workload.Config{
		Seed:             seed,
		Videos:           corpus,
		Sites:            w.Cluster.Sites(),
		MeanInterArrival: simtime.Seconds(1 / cfg.BaseLoad),
	})
	if err := out.serveAll("transcode", w, gen, cfg.Horizon, serveHooks{
		done: func(d *core.Delivery) {
			if d.Session.FarmRouted() {
				out.FarmRouted++
				out.Startup.Add(d.Session.StartupDelayMillis())
			}
		},
	}); err != nil {
		return nil, err
	}
	if f := w.Manager.Farm(); f != nil {
		out.Farm = f.Stats()
		if out.Farm.QueueDepth != 0 {
			return nil, fmt.Errorf("experiments: %d transcode jobs still queued after drain", out.Farm.QueueDepth)
		}
	}
	return out, nil
}

// Transcode sweeps the farm variants as independent hermetic cells. Not
// part of -exp all: its single-copy corpus skews the other figures'
// protocol.
var Transcode = &Spec[TranscodeConfig, *TranscodePoint]{
	name: "transcode",
	config: func(s Settings) (TranscodeConfig, error) {
		cfg := DefaultTranscodeConfig()
		cfg.Seed = s.Seed
		return cfg, nil
	},
	points: func(cfg TranscodeConfig) []runner.Point {
		pts := make([]runner.Point, len(cfg.Variants))
		for i, v := range cfg.Variants {
			pts[i] = runner.Point{Key: v.Key, Label: v.Label}
		}
		return pts
	},
	run: RunTranscodePoint,
	// Startup quantiles read the pooled cross-replica sample.
	columns: []column[*TranscodePoint]{
		label("variant", func(p *TranscodePoint) string { return p.Variant }),
		count("queries", func(p *TranscodePoint) int { return p.Queries }),
		count("admitted", func(p *TranscodePoint) int { return p.Admitted }),
		count("rejected", func(p *TranscodePoint) int { return p.Rejected }),
		count("completed", func(p *TranscodePoint) int { return p.Completed }),
		count("qos_ok", func(p *TranscodePoint) int { return p.QoSOK }),
		count("failed", func(p *TranscodePoint) int { return p.Failed }),
		count("farm_routed", func(p *TranscodePoint) int { return p.FarmRouted }),
		count("jobs", func(p *TranscodePoint) int { return int(p.Farm.Jobs) }),
		csvOnly(count("misses", func(p *TranscodePoint) int { return int(p.Farm.DeadlineMiss) })),
		jsonOnly("deadline_miss", func(p *TranscodePoint) any { return p.Farm.DeadlineMiss }),
		num("miss_rate", "%.4f", func(p *TranscodePoint) float64 { return p.Farm.MissRate() }),
		exact("max_queue", func(p *TranscodePoint) int { return p.Farm.MaxQueueDepth }),
		count("scale_ups", func(p *TranscodePoint) int { return int(p.Farm.ScaleUps) }),
		count("scale_downs", func(p *TranscodePoint) int { return int(p.Farm.ScaleDowns) }),
		mean("dollars", "%.4f", func(p *TranscodePoint) float64 { return p.Farm.Dollars }),
		num("startup_p50_ms", "%.3f", func(p *TranscodePoint) float64 { return p.Startup.Percentile(50) }),
		num("startup_p95_ms", "%.3f", func(p *TranscodePoint) float64 { return p.Startup.Percentile(95) }),
		num("startup_p99_ms", "%.3f", func(p *TranscodePoint) float64 { return p.Startup.Percentile(99) }),
	},
	report: FormatTranscode,
	archive: &archive[TranscodeConfig, *TranscodePoint]{
		rows: "variants",
		head: horizonHead(func(c TranscodeConfig) simtime.Time { return c.Horizon }),
		// The cost/latency frontier: one (dollars, p99 startup, miss rate)
		// sample per variant, in sweep order.
		tail: func(_ TranscodeConfig, points []*TranscodePoint) object {
			pareto := make([]object, len(points))
			for i, p := range points {
				pareto[i] = object{
					{"variant", p.Variant},
					{"dollars", p.Farm.Dollars / float64(p.reps())},
					{"startup_p99_ms", p.Startup.Percentile(99)},
					{"miss_rate", p.Farm.MissRate()},
				}
			}
			return object{{"pareto", pareto}}
		},
	},
}

// FormatTranscode renders the sweep the way an operator reads a Pareto
// frontier: what each fleet costs, and what startup delay and miss rate it
// buys.
func FormatTranscode(cfg TranscodeConfig, points []*TranscodePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Transcode farm: %.0f s at %.1f qps, single-copy corpus (every lower tier transcodes)",
		simtime.ToSeconds(cfg.Horizon), cfg.BaseLoad)
	if len(points) > 0 && points[0].reps() > 1 {
		fmt.Fprintf(&b, "  (mean of %d replicas)", points[0].reps())
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "%-9s %8s %9s %9s %7s %7s %7s %7s %9s %10s %10s %10s\n",
		"variant", "queries", "admitted", "rejected", "qos-ok", "routed", "jobs", "misses",
		"dollars", "p50(ms)", "p99(ms)", "miss-rate")
	for _, p := range points {
		reps := p.reps()
		f := p.Farm
		fmt.Fprintf(&b, "%-9s %8s %9s %9s %7s %7s %7s %7s %9.4f %10.3f %10.3f %10.4f\n",
			p.Variant, fmtCount(p.Queries, reps), fmtCount(p.Admitted, reps),
			fmtCount(p.Rejected, reps), fmtCount(p.QoSOK, reps), fmtCount(p.FarmRouted, reps),
			fmtCount(int(f.Jobs), reps), fmtCount(int(f.DeadlineMiss), reps),
			f.Dollars/float64(reps), p.Startup.Percentile(50), p.Startup.Percentile(99), f.MissRate())
	}
	b.WriteString("\nPareto (dollars vs p99 startup):")
	for _, p := range points {
		fmt.Fprintf(&b, "  %s ($%.4f, %.1f ms)", p.Variant,
			p.Farm.Dollars/float64(p.reps()), p.Startup.Percentile(99))
	}
	b.WriteString("\n")
	return b.String()
}
