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
	"quasaq/internal/qos"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/stats"
	"quasaq/internal/vdbms"
	"quasaq/internal/workload"
)

// The SLA experiment sweeps clause strictness: every arriving query carries
// the same WITH QOS network clause (a "tier"), the admission gate prices it
// against the candidate plans, and the guardian enforces it over the live
// windows while link congestion squeezes two delivery sites. Each declared
// violation and recovery lands in the vdbms's own qoe table; when the world
// drains, the per-metric violation counts and QoE severity percentiles are
// read back with SELECT ... FROM qoe — the database reports on its own
// service quality, which is the paper's end-to-end loop closed.

// SLATier is one clause-strictness level. The clause is QoS-term text as it
// would appear inside WITH QOS (...), parsed by the vdbms parser, so the
// experiment exercises the exact surface a client would.
type SLATier struct {
	Name   string
	Clause string // "" or "any" = no network terms (control tier)
}

// SLAConfig parameterizes the sweep.
type SLAConfig struct {
	Seed     int64
	BaseLoad float64          // queries per second at phase rate 1
	Phases   []workload.Phase // arrival ramp; the horizon is their sum
	Schedule faults.Schedule  // congestion plan shared by every tier
	Ctrl     broker.Config
	Guardian guardian.Config
	Tiers    []SLATier
}

// DefaultSLAConfig ramps 1→8→1 qps over 140 s with mid-run congestion on
// srv-a and srv-b, swept over four tiers from no clause to a strict one.
// The delay bounds bracket the corpus's priced inter-frame delays
// (1000/fps ≈ 33–50 ms) and the throughput floors bracket the low quality
// tiers' bitrates, so stricter tiers genuinely reject and violate more.
func DefaultSLAConfig() SLAConfig {
	return SLAConfig{
		Seed:     31,
		BaseLoad: 1,
		Phases: []workload.Phase{
			{Rate: 1, Duration: simtime.Seconds(30)},
			{Rate: 8, Duration: simtime.Seconds(80)},
			{Rate: 1, Duration: simtime.Seconds(30)},
		},
		Schedule: faults.Schedule{
			{At: simtime.Seconds(40), Kind: faults.LinkCongest, Target: "srv-a", Factor: 0.5},
			{At: simtime.Seconds(55), Kind: faults.LinkCongest, Target: "srv-b", Factor: 0.6},
			{At: simtime.Seconds(110), Kind: faults.LinkRestore, Target: "srv-a"},
			{At: simtime.Seconds(120), Kind: faults.LinkRestore, Target: "srv-b"},
		},
		Ctrl:     broker.TestbedConfig(),
		Guardian: guardian.Config{},
		Tiers: []SLATier{
			{Name: "none", Clause: "any"},
			{Name: "bronze", Clause: "loss <= 0.25, delay <= 120"},
			{Name: "silver", Clause: "loss <= 0.10, delay <= 60, throughput >= 40000"},
			{Name: "gold", Clause: "loss <= 0.04, delay <= 48, jitter <= 45, throughput >= 90000"},
		},
	}
}

// Horizon is the arrival window: the sum of the phase durations.
func (c SLAConfig) Horizon() simtime.Time {
	var h simtime.Time
	for _, p := range c.Phases {
		h += p.Duration
	}
	return h
}

// SLAPoint is one tier's outcome.
type SLAPoint struct {
	Tier   string
	Clause string // canonical clause text (Requirement.String of the net terms)

	Tally
	Unsatisfiable int // rejections carrying core.ErrQoSUnsatisfiable
	Abandoned     int // failures carrying guardian.ErrQoSAbandoned

	Guardian guardian.Stats

	// Read back through the vdbms engine after the drain (SELECT ... FROM
	// qoe), not from in-process counters: the persisted history is the
	// artifact under test.
	QoERows       int
	QoEViolations int
	QoERecovered  int
	QoEPeaks      int

	// Severity samples pooled from the qoe violation rows' avg column.
	DelaySeverity *stats.Sample // ms
	LossSeverity  *stats.Sample // fraction

	Replicas int `merge:"reps"`
}

func (p *SLAPoint) reps() int { return max(1, p.Replicas) }

// slaTier finds a tier by name.
func (c SLAConfig) slaTier(name string) (SLATier, bool) {
	for _, t := range c.Tiers {
		if t.Name == name {
			return t, true
		}
	}
	return SLATier{}, false
}

// RunSLAPoint runs one tier in a hermetic world and drains it completely,
// then queries the QoE history back through the vdbms engine.
func RunSLAPoint(cfg SLAConfig, tierName string, seed int64) (*SLAPoint, error) {
	tier, ok := cfg.slaTier(tierName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown SLA tier %q", tierName)
	}
	if cfg.BaseLoad <= 0 {
		return nil, fmt.Errorf("experiments: non-positive base load %v", cfg.BaseLoad)
	}
	if len(cfg.Phases) == 0 {
		return nil, fmt.Errorf("experiments: SLA needs a phase ramp")
	}
	parsed, err := vdbms.ParseRequirement(tier.Clause)
	if err != nil {
		return nil, fmt.Errorf("experiments: tier %q clause: %w", tier.Name, err)
	}
	clause := parsed.Net

	corpus := media.StandardCorpus(uint64(seed))
	pol := core.DefaultFailoverPolicy()
	pol.BestEffortFallback = true
	dc := deploy.Config{Videos: corpus, Control: cfg.Ctrl, Failover: &pol, Guardian: &cfg.Guardian}
	dc.Control.Seed = seed
	w, err := deploy.Open(dc)
	if err != nil {
		return nil, err
	}
	if _, err := w.InjectFaults(cfg.Schedule); err != nil {
		return nil, err
	}

	out := &SLAPoint{
		Tier:          tier.Name,
		Clause:        clauseString(clause),
		DelaySeverity: &stats.Sample{},
		LossSeverity:  &stats.Sample{},
	}
	gen := workload.New(workload.Config{
		Seed:             seed,
		Videos:           corpus,
		Sites:            w.Cluster.Sites(),
		MeanInterArrival: simtime.Seconds(1 / cfg.BaseLoad),
		Phases:           cfg.Phases,
	})
	if err := out.serveAll("SLA", w, gen, cfg.Horizon(), serveHooks{
		arrive: func(r workload.Request) qos.Requirement { return r.Req.WithNet(clause...) },
		verdict: func(_ *core.Delivery, err error, _ simtime.Time) {
			if errors.Is(err, core.ErrQoSUnsatisfiable) {
				out.Unsatisfiable++
			}
		},
		failed: func(err error) {
			if errors.Is(err, guardian.ErrQoSAbandoned) {
				out.Abandoned++
			}
		},
	}); err != nil {
		return nil, err
	}
	out.Guardian = w.Guardian.Stats()
	if err := out.readQoE(w.Cluster.Engine); err != nil {
		return nil, err
	}
	return out, nil
}

// readQoE fills the point's QoE fields by querying the engine's qoe table —
// the same SELECT surface any client gets.
func (p *SLAPoint) readQoE(e *vdbms.Engine) error {
	all, _, err := e.QoESQL("SELECT * FROM qoe")
	if err != nil {
		return err
	}
	p.QoERows = len(all)
	viols, _, err := e.QoESQL("SELECT * FROM qoe WHERE kind = 'violation'")
	if err != nil {
		return err
	}
	p.QoEViolations = len(viols)
	rec, _, err := e.QoESQL("SELECT * FROM qoe WHERE kind = 'recovered'")
	if err != nil {
		return err
	}
	p.QoERecovered = len(rec)
	peaks, _, err := e.QoESQL("SELECT * FROM qoe WHERE kind = 'violation' AND peak = 1")
	if err != nil {
		return err
	}
	p.QoEPeaks = len(peaks)
	delays, _, err := e.QoESQL("SELECT * FROM qoe WHERE kind = 'violation' AND metric = 'delay'")
	if err != nil {
		return err
	}
	for _, r := range delays {
		p.DelaySeverity.Add(r.Avg)
	}
	losses, _, err := e.QoESQL("SELECT * FROM qoe WHERE kind = 'violation' AND metric = 'loss'")
	if err != nil {
		return err
	}
	for _, r := range losses {
		p.LossSeverity.Add(r.Avg)
	}
	return nil
}

// SLA sweeps the configured clause tiers as runner points. Not part of
// -exp all: its drain runs long past the ramp, like overload's.
var SLA = &Spec[SLAConfig, *SLAPoint]{
	name: "sla",
	config: func(s Settings) (SLAConfig, error) {
		cfg := DefaultSLAConfig()
		cfg.Seed = s.Seed
		return cfg, nil
	},
	points: func(cfg SLAConfig) []runner.Point {
		pts := make([]runner.Point, len(cfg.Tiers))
		for i, t := range cfg.Tiers {
			pts[i] = runner.Point{Key: t.Name, Label: t.Clause}
		}
		return pts
	},
	run: RunSLAPoint,
	// The CSV flattens the per-metric violation counters the JSON record
	// nests under guardian; severity quantiles read the pooled cross-replica
	// samples.
	columns: []column[*SLAPoint]{
		label("tier", func(p *SLAPoint) string { return p.Tier }),
		label("clause", func(p *SLAPoint) string { return p.Clause }),
		count("queries", func(p *SLAPoint) int { return p.Queries }),
		count("admitted", func(p *SLAPoint) int { return p.Admitted }),
		count("rejected", func(p *SLAPoint) int { return p.Rejected }),
		count("unsatisfiable", func(p *SLAPoint) int { return p.Unsatisfiable }),
		count("completed", func(p *SLAPoint) int { return p.Completed }),
		count("qos_ok", func(p *SLAPoint) int { return p.QoSOK }),
		count("failed", func(p *SLAPoint) int { return p.Failed }),
		count("abandoned", func(p *SLAPoint) int { return p.Abandoned }),
		csvOnly(count("viol_loss", func(p *SLAPoint) int { return int(p.Guardian.LossViolations) })),
		csvOnly(count("viol_delay", func(p *SLAPoint) int { return int(p.Guardian.DelayViolations) })),
		csvOnly(count("viol_jitter", func(p *SLAPoint) int { return int(p.Guardian.JitterViolations) })),
		csvOnly(count("viol_throughput", func(p *SLAPoint) int { return int(p.Guardian.ThroughputViolations) })),
		jsonOnly("guardian", func(p *SLAPoint) any { return p.Guardian }),
		count("qoe_rows", func(p *SLAPoint) int { return p.QoERows }),
		count("qoe_violations", func(p *SLAPoint) int { return p.QoEViolations }),
		count("qoe_recovered", func(p *SLAPoint) int { return p.QoERecovered }),
		count("qoe_peaks", func(p *SLAPoint) int { return p.QoEPeaks }),
		num("qoe_delay_p95_ms", "%.3f", func(p *SLAPoint) float64 { return p.DelaySeverity.Percentile(95) }),
		num("qoe_delay_p99_ms", "%.3f", func(p *SLAPoint) float64 { return p.DelaySeverity.Percentile(99) }),
		num("qoe_loss_p95", "%.4f", func(p *SLAPoint) float64 { return p.LossSeverity.Percentile(95) }),
		num("qoe_loss_p99", "%.4f", func(p *SLAPoint) float64 { return p.LossSeverity.Percentile(99) }),
	},
	report:  FormatSLA,
	archive: &archive[SLAConfig, *SLAPoint]{rows: "tiers", head: horizonHead(SLAConfig.Horizon)},
}

// FormatSLA renders the sweep as a console table.
func FormatSLA(cfg SLAConfig, points []*SLAPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SLA: %.0f s ramp, congestion on srv-a/srv-b, %d clause tiers",
		simtime.ToSeconds(cfg.Horizon()), len(cfg.Tiers))
	if len(points) > 0 && points[0].reps() > 1 {
		fmt.Fprintf(&b, "  (mean of %d replicas)", points[0].reps())
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "%-8s %8s %9s %9s %7s %10s %10s %10s %12s %10s\n",
		"tier", "queries", "admitted", "unsatisf", "qos-ok", "abandoned",
		"violations", "qoe-rows", "delay-p99", "loss-p99")
	for _, p := range points {
		reps := p.reps()
		fmt.Fprintf(&b, "%-8s %8s %9s %9s %7s %10s %10s %10s %12.3f %10.4f\n",
			p.Tier, fmtCount(p.Queries, reps), fmtCount(p.Admitted, reps),
			fmtCount(p.Unsatisfiable, reps), fmtCount(p.QoSOK, reps),
			fmtCount(p.Abandoned, reps), fmtCount(int(p.Guardian.Violations), reps),
			fmtCount(p.QoERows, reps),
			p.DelaySeverity.Percentile(99), p.LossSeverity.Percentile(99))
	}
	return strings.TrimRight(b.String(), "\n")
}

// clauseString renders the net terms canonically (empty for the control tier).
func clauseString(ts []qos.Threshold) string {
	if len(ts) == 0 {
		return "any"
	}
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, ", ")
}
