package experiments

import (
	"errors"
	"fmt"
	"strings"

	"quasaq/internal/broker"
	"quasaq/internal/core"
	"quasaq/internal/deploy"
	"quasaq/internal/faults"
	"quasaq/internal/guardian"
	"quasaq/internal/media"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/stats"
	"quasaq/internal/workload"
)

// The overload experiment ramps the arrival rate well past testbed capacity
// while cross traffic congests two delivery links and a third site briefly
// partitions, then lets the load recede. It runs twice in hermetic worlds:
// a "baseline" with every protection off, and a "guarded" variant with the
// runtime QoS guardian, per-site circuit breakers, the global retry budget,
// and the deadline-aware admission queue all on. The comparison answers the
// two robustness questions: how many would-be QoS casualties the
// degradation ladder rescues short of abandonment, and how much admission
// tail latency the breaker shaves when a site goes dark.

// OverloadConfig parameterizes one baseline/guarded pair.
type OverloadConfig struct {
	Seed     int64
	BaseLoad float64          // queries per second at phase rate 1
	Phases   []workload.Phase // piecewise ramp; the horizon is their sum
	Schedule faults.Schedule  // congestion + partition plan
	Ctrl     broker.Config    // shared control-plane parameters

	// Protections, applied only to the guarded variant.
	Breaker     broker.BreakerConfig
	RetryBudget broker.RetryBudgetConfig
	Queue       core.AdmissionQueueConfig
	Guardian    guardian.Config
}

// DefaultOverloadConfig ramps 1→6→15→6→1 qps over 280 s; srv-a and srv-b
// lose half their effective link capacity to cross traffic through the
// peak, and srv-c partitions for 30 s right as the ramp crests.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{
		Seed:     23,
		BaseLoad: 1,
		Phases: []workload.Phase{
			{Rate: 1, Duration: simtime.Seconds(40)},
			{Rate: 6, Duration: simtime.Seconds(60)},
			{Rate: 15, Duration: simtime.Seconds(80)},
			{Rate: 6, Duration: simtime.Seconds(60)},
			{Rate: 1, Duration: simtime.Seconds(40)},
		},
		Schedule: faults.Schedule{
			{At: simtime.Seconds(60), Kind: faults.LinkCongest, Target: "srv-a", Factor: 0.45},
			{At: simtime.Seconds(90), Kind: faults.LinkCongest, Target: "srv-b", Factor: 0.65},
			{At: simtime.Seconds(100), Kind: faults.LinkPartition, Target: "srv-c"},
			{At: simtime.Seconds(130), Kind: faults.LinkRestore, Target: "srv-c"},
			{At: simtime.Seconds(200), Kind: faults.LinkRestore, Target: "srv-a"},
			{At: simtime.Seconds(210), Kind: faults.LinkRestore, Target: "srv-b"},
		},
		Ctrl:        broker.TestbedConfig(),
		Breaker:     broker.BreakerConfig{Threshold: 3},
		RetryBudget: broker.RetryBudgetConfig{Burst: 10},
		Queue: core.AdmissionQueueConfig{
			MaxInFlight: 12,
			MaxQueue:    64,
			Deadline:    simtime.Seconds(2),
		},
		Guardian: guardian.Config{}, // defaults
	}
}

// Horizon is the arrival window: the sum of the phase durations.
func (c OverloadConfig) Horizon() simtime.Time {
	var h simtime.Time
	for _, p := range c.Phases {
		h += p.Duration
	}
	return h
}

// OverloadPoint is one variant's outcome.
type OverloadPoint struct {
	Variant string

	Tally
	Expired      int // rejections carrying ErrAdmissionDeadline
	CtrlTimeouts int // rejections carrying ErrControlTimeout
	QoSAbandoned int // failures carrying ErrQoSAbandoned

	Latency *stats.Sample // admission decision latency, ms from arrival

	Guardian           guardian.Stats
	BreakerOpens       uint64
	BreakerFastFails   uint64
	RetriesSuppressed  uint64
	BreakerOpenSeconds float64

	// Replicas counts merged replica runs (0 or 1 means a single run).
	Replicas int `merge:"reps"`
}

func (p *OverloadPoint) reps() int { return max(1, p.Replicas) }

// SavedRate is violated sessions rescued by rungs 1–3 over all violated
// sessions (0 when nothing violated).
func (p *OverloadPoint) SavedRate() float64 {
	if p.Guardian.ViolatedSessions == 0 {
		return 0
	}
	return float64(p.Guardian.Saved()) / float64(p.Guardian.ViolatedSessions)
}

// AbandonRate is guardian-shed sessions over admitted sessions.
func (p *OverloadPoint) AbandonRate() float64 {
	if p.Admitted == 0 {
		return 0
	}
	return float64(p.QoSAbandoned) / float64(p.Admitted)
}

// RunOverloadPoint runs one variant ("baseline" or "guarded") in a hermetic
// world and drains it completely: every admission settles and every stream
// finishes before counters are read.
func RunOverloadPoint(cfg OverloadConfig, variant string, seed int64) (*OverloadPoint, error) {
	guarded := variant == "guarded"
	if !guarded && variant != "baseline" {
		return nil, fmt.Errorf("experiments: unknown overload variant %q", variant)
	}
	if cfg.BaseLoad <= 0 {
		return nil, fmt.Errorf("experiments: non-positive base load %v", cfg.BaseLoad)
	}
	if len(cfg.Phases) == 0 {
		return nil, fmt.Errorf("experiments: overload needs a phase ramp")
	}
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, err
	}

	corpus := media.StandardCorpus(uint64(seed))
	pol := core.DefaultFailoverPolicy()
	pol.BestEffortFallback = true
	dc := deploy.Config{Videos: corpus, Control: cfg.Ctrl, Failover: &pol}
	dc.Control.Seed = seed
	if guarded {
		dc.Control.Breaker = cfg.Breaker
		dc.Control.RetryBudget = cfg.RetryBudget
		dc.AdmissionQueue = &cfg.Queue
		dc.Guardian = &cfg.Guardian
	}
	w, err := deploy.Open(dc)
	if err != nil {
		return nil, err
	}
	if _, err := w.InjectFaults(cfg.Schedule); err != nil {
		return nil, err
	}

	out := &OverloadPoint{Variant: variant, Latency: &stats.Sample{}}
	gen := workload.New(workload.Config{
		Seed:             seed,
		Videos:           corpus,
		Sites:            w.Cluster.Sites(),
		MeanInterArrival: simtime.Seconds(1 / cfg.BaseLoad),
		Phases:           cfg.Phases,
	})
	if err := out.serveAll("overload", w, gen, cfg.Horizon(), serveHooks{
		verdict: func(_ *core.Delivery, err error, wait simtime.Time) {
			out.Latency.Add(1000 * simtime.ToSeconds(wait))
			if errors.Is(err, core.ErrAdmissionDeadline) {
				out.Expired++
			}
			if errors.Is(err, core.ErrControlTimeout) {
				out.CtrlTimeouts++
			}
		},
		failed: func(err error) {
			if errors.Is(err, guardian.ErrQoSAbandoned) {
				out.QoSAbandoned++
			}
		},
	}); err != nil {
		return nil, err
	}
	if w.Guardian != nil {
		out.Guardian = w.Guardian.Stats()
	}
	reg := w.Manager.Registry()
	out.BreakerOpens = reg.Counter("quasaq_ctrl_breaker_opens_total").Value()
	out.BreakerFastFails = reg.Counter("quasaq_ctrl_breaker_fastfails_total").Value()
	out.RetriesSuppressed = reg.Counter("quasaq_ctrl_retries_suppressed_total").Value()
	out.BreakerOpenSeconds = simtime.ToSeconds(w.Cluster.Ctrl.BreakerOpenTime())
	return out, nil
}

// Overload runs the baseline and guarded variants as two points. Not part
// of -exp all: the drain runs long past the ramp.
var Overload = &Spec[OverloadConfig, *OverloadPoint]{
	name: "overload",
	config: func(s Settings) (OverloadConfig, error) {
		cfg := DefaultOverloadConfig()
		cfg.Seed = s.Seed
		if s.OverloadScale != 1 {
			if s.OverloadScale <= 0 {
				return cfg, fmt.Errorf("non-positive -overload-scale %v", s.OverloadScale)
			}
			for i := range cfg.Phases {
				cfg.Phases[i].Duration = simtime.Time(float64(cfg.Phases[i].Duration) * s.OverloadScale)
			}
			for i := range cfg.Schedule {
				cfg.Schedule[i].At = simtime.Time(float64(cfg.Schedule[i].At) * s.OverloadScale)
			}
		}
		return cfg, nil
	},
	points: func(OverloadConfig) []runner.Point {
		return []runner.Point{
			{Key: "baseline", Label: "no protections"},
			{Key: "guarded", Label: "guardian + breaker + queue"},
		}
	},
	run: RunOverloadPoint,
	// The CSV flattens the guardian counters the JSON record nests; latency
	// quantiles read the pooled cross-replica sample.
	columns: []column[*OverloadPoint]{
		label("variant", func(p *OverloadPoint) string { return p.Variant }),
		count("queries", func(p *OverloadPoint) int { return p.Queries }),
		count("admitted", func(p *OverloadPoint) int { return p.Admitted }),
		count("rejected", func(p *OverloadPoint) int { return p.Rejected }),
		count("expired", func(p *OverloadPoint) int { return p.Expired }),
		count("ctrl_timeouts", func(p *OverloadPoint) int { return p.CtrlTimeouts }),
		count("completed", func(p *OverloadPoint) int { return p.Completed }),
		count("qos_ok", func(p *OverloadPoint) int { return p.QoSOK }),
		count("failed", func(p *OverloadPoint) int { return p.Failed }),
		count("qos_abandoned", func(p *OverloadPoint) int { return p.QoSAbandoned }),
		csvOnly(count("violations", func(p *OverloadPoint) int { return int(p.Guardian.Violations) })),
		csvOnly(count("violated_sessions", func(p *OverloadPoint) int { return int(p.Guardian.ViolatedSessions) })),
		csvOnly(count("stepdowns", func(p *OverloadPoint) int { return int(p.Guardian.StepDowns) })),
		csvOnly(count("renegotiates", func(p *OverloadPoint) int { return int(p.Guardian.Renegotiates) })),
		csvOnly(count("migrations", func(p *OverloadPoint) int { return int(p.Guardian.Migrations) })),
		csvOnly(count("abandons", func(p *OverloadPoint) int { return int(p.Guardian.Abandons) })),
		csvOnly(count("saved", func(p *OverloadPoint) int { return int(p.Guardian.Saved()) })),
		jsonOnly("guardian", func(p *OverloadPoint) any { return p.Guardian }),
		count("breaker_opens", func(p *OverloadPoint) int { return int(p.BreakerOpens) }),
		count("breaker_fastfails", func(p *OverloadPoint) int { return int(p.BreakerFastFails) }),
		count("retries_suppressed", func(p *OverloadPoint) int { return int(p.RetriesSuppressed) }),
		total("breaker_open_s", "%.3f", func(p *OverloadPoint) float64 { return p.BreakerOpenSeconds }),
		num("adm_mean_ms", "%.3f", func(p *OverloadPoint) float64 { return p.Latency.Summary().Mean() }),
		num("adm_p50_ms", "%.3f", func(p *OverloadPoint) float64 { return p.Latency.Percentile(50) }),
		num("adm_p95_ms", "%.3f", func(p *OverloadPoint) float64 { return p.Latency.Percentile(95) }),
		num("adm_p99_ms", "%.3f", func(p *OverloadPoint) float64 { return p.Latency.Percentile(99) }),
		num("adm_max_ms", "%.3f", func(p *OverloadPoint) float64 { return p.Latency.Summary().Max() }),
	},
	report: FormatOverload,
	archive: &archive[OverloadConfig, *OverloadPoint]{
		rows: "variants",
		head: horizonHead(OverloadConfig.Horizon),
		// Headline comparisons.
		tail: func(_ OverloadConfig, points []*OverloadPoint) object {
			var saved, abandon, baseP99, guardP99, gain float64
			if base, guard := overloadVariant(points, "baseline"), overloadVariant(points, "guarded"); base != nil && guard != nil {
				saved, abandon = guard.SavedRate(), guard.AbandonRate()
				baseP99, guardP99 = base.Latency.Percentile(99), guard.Latency.Percentile(99)
				if baseP99 > 0 {
					gain = 1 - guardP99/baseP99
				}
			}
			return object{
				{"guardian_saved_rate", saved},
				{"guardian_abandon_rate", abandon},
				{"baseline_admission_p99_ms", baseP99},
				{"guarded_admission_p99_ms", guardP99},
				{"admission_p99_improvement_frac", gain},
			}
		},
	},
}

// overloadVariant finds a named variant in the pair (nil if absent).
func overloadVariant(points []*OverloadPoint, name string) *OverloadPoint {
	for _, p := range points {
		if p.Variant == name {
			return p
		}
	}
	return nil
}

// FormatOverload renders the pair the way an operator compares them: what
// the ramp cost without protections, and what each protection bought.
func FormatOverload(cfg OverloadConfig, points []*OverloadPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overload: %.0f s ramp", simtime.ToSeconds(cfg.Horizon()))
	for i, p := range cfg.Phases {
		if i == 0 {
			b.WriteString(" (")
		} else {
			b.WriteString("→")
		}
		fmt.Fprintf(&b, "%g", p.Rate*cfg.BaseLoad)
	}
	b.WriteString(" qps), congestion on srv-a/srv-b, srv-c partition at the crest")
	if len(points) > 0 && points[0].reps() > 1 {
		fmt.Fprintf(&b, "  (mean of %d replicas)", points[0].reps())
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "%-9s %8s %9s %9s %8s %8s %10s %7s %7s %10s %10s %10s\n",
		"variant", "queries", "admitted", "rejected", "expired", "failed", "abandoned",
		"qos-ok", "opens", "p50(ms)", "p99(ms)", "max(ms)")
	for _, p := range points {
		reps := p.reps()
		fmt.Fprintf(&b, "%-9s %8s %9s %9s %8s %8s %10s %7s %7s %10.3f %10.3f %10.3f\n",
			p.Variant, fmtCount(p.Queries, reps), fmtCount(p.Admitted, reps),
			fmtCount(p.Rejected, reps), fmtCount(p.Expired, reps), fmtCount(p.Failed, reps),
			fmtCount(p.QoSAbandoned, reps), fmtCount(p.QoSOK, reps), fmtCount(int(p.BreakerOpens), reps),
			p.Latency.Percentile(50), p.Latency.Percentile(99), p.Latency.Summary().Max())
	}
	if guard := overloadVariant(points, "guarded"); guard != nil {
		g := guard.Guardian
		reps := guard.reps()
		fmt.Fprintf(&b, "\nGuardian: %s violated sessions, rungs fired stepdown %s  renegotiate %s  migrate %s  abandon %s\n",
			fmtCount(int(g.ViolatedSessions), reps), fmtCount(int(g.StepDowns), reps),
			fmtCount(int(g.Renegotiates), reps), fmtCount(int(g.Migrations), reps), fmtCount(int(g.Abandons), reps))
		fmt.Fprintf(&b, "Saved short of abandonment: %s of %s violated (%.0f%%)  abandon rate %.1f%% of admitted\n",
			fmtCount(int(g.Saved()), reps), fmtCount(int(g.ViolatedSessions), reps),
			100*guard.SavedRate(), 100*guard.AbandonRate())
		fmt.Fprintf(&b, "Breaker: open %.2f s total, %s fast-fails, %s retries suppressed\n",
			guard.BreakerOpenSeconds/float64(reps), fmtCount(int(guard.BreakerFastFails), reps),
			fmtCount(int(guard.RetriesSuppressed), reps))
	}
	if base, guard := overloadVariant(points, "baseline"), overloadVariant(points, "guarded"); base != nil && guard != nil {
		fmt.Fprintf(&b, "Admission p99: baseline %.1f ms → guarded %.1f ms\n",
			base.Latency.Percentile(99), guard.Latency.Percentile(99))
	}
	return b.String()
}
