package experiments

import (
	"fmt"
	"strings"

	"quasaq/internal/core"
	"quasaq/internal/deploy"
	"quasaq/internal/edgecache"
	"quasaq/internal/media"
	"quasaq/internal/metadata"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/stats"
	"quasaq/internal/workload"
)

// The edge experiment measures what the proxy-cache tier buys: the same
// Zipf-skewed diurnal workload (with a flash-crowd spike) runs once against
// the plain origin-only testbed and once with two cooperative edge sites
// caching hot prefixes. Per mode it reports viewer startup latency
// (p50/p90/p99), the edge hit ratio, how many planned delivery bytes the
// tier kept off the origin links, and the reject rate — the acceptance
// claim is lower startup tails and measurable origin offload at a reject
// rate no worse than edge-less.
//
// Startup latency is modeled, not streamed: an admitted viewer waits one
// round trip to the site serving its first frame plus a queueing term that
// grows with that site's bucket fill at admission (Eq. 1's (U+r)/R for the
// first leg's demand). Edge sites sit client-side of the backbone, so their
// RTT is a fraction of the origins' — the split plan's whole point.
// Offload is likewise planned bytes: a split plan serves the GOPs before
// the handover boundary from the edge copy and only the tail from an
// origin.

// EdgeMode names one sweep point.
const (
	EdgeModeOff = "edgeless"
	EdgeModeOn  = "edge"
)

// EdgeExpConfig parameterizes the comparison.
type EdgeExpConfig struct {
	Seed     int64
	BaseLoad float64          // queries per second at phase rate 1
	ZipfSkew float64          // catalog popularity skew
	Phases   []workload.Phase // diurnal ramp with a flash-crowd spike
	Edge     edgecache.Config // cache policy for the edge point
	Sites    []core.EdgeSite  // edge sites for the edge point

	OriginRTTms float64 // round trip to an origin site
	EdgeRTTms   float64 // round trip to an edge site
	QueueMs     float64 // queueing scale; the term is QueueMs·fill/(1.1−fill)
}

// DefaultEdgeExpConfig is a 160 s diurnal curve — quiet, busy, quiet — with
// a 20 s flash crowd at 6x base load, over a Zipf(1.5) catalog so a hot
// head dominates. The cache admits a prefix after 2 hits in a decay window,
// budgets 192 MB per edge site, and promotes sustained-hot prefixes to full
// edge replicas.
func DefaultEdgeExpConfig() EdgeExpConfig {
	return EdgeExpConfig{
		Seed:     47,
		BaseLoad: 0.5,
		ZipfSkew: 1.5,
		Phases: []workload.Phase{
			{Rate: 1, Duration: simtime.Seconds(30)},
			{Rate: 3, Duration: simtime.Seconds(50)},
			{Rate: 6, Duration: simtime.Seconds(20)}, // flash crowd
			{Rate: 3, Duration: simtime.Seconds(30)},
			{Rate: 1, Duration: simtime.Seconds(30)},
		},
		Edge: edgecache.Config{
			MinHits:    2,
			PrefixGOPs: 12,
			Interval:   simtime.Seconds(5),
			ByteBudget: 192 << 20,
			// A low promotion threshold lets flash-crowd popularity upgrade
			// hot prefixes to full edge replicas quickly; only full copies
			// take their tails off the origin links.
			PromoteHits: 10,
		},
		Sites:       []core.EdgeSite{{Name: "edge-a"}, {Name: "edge-b"}},
		OriginRTTms: 60,
		EdgeRTTms:   8,
		QueueMs:     80,
	}
}

// Horizon is the arrival window: the sum of the phase durations.
func (c EdgeExpConfig) Horizon() simtime.Time {
	var h simtime.Time
	for _, p := range c.Phases {
		h += p.Duration
	}
	return h
}

// EdgePoint is one mode's outcome.
type EdgePoint struct {
	Mode string

	Tally

	SplitAdmissions uint64
	Handovers       uint64

	Startup *stats.Sample // modeled viewer startup latency, ms

	// Planned delivery bytes by serving tier (the offload measure).
	OriginBytes int64
	EdgeBytes   int64

	Edge edgecache.Stats

	Replicas int `merge:"reps"`
}

func (p *EdgePoint) reps() int { return max(1, p.Replicas) }

// RejectRate returns rejected / queries.
func (p *EdgePoint) RejectRate() float64 {
	if p.Queries == 0 {
		return 0
	}
	return float64(p.Rejected) / float64(p.Queries)
}

// OffloadFraction returns the share of planned delivery bytes served from
// edge copies.
func (p *EdgePoint) OffloadFraction() float64 {
	total := p.OriginBytes + p.EdgeBytes
	if total == 0 {
		return 0
	}
	return float64(p.EdgeBytes) / float64(total)
}

// legBytes sizes the [from, to) frame range of a replica's variant in
// bytes, GOP by GOP — the planned load its leg puts on the serving site.
func legBytes(v *media.Video, va media.Variant, from, to int) int64 {
	gop := v.GOP.Len()
	var total int64
	for f := from - from%gop; f < to; f += gop {
		total += va.GOPSize(v, f)
	}
	return total
}

// RunEdgePoint runs one mode in a hermetic world and drains it completely.
func RunEdgePoint(cfg EdgeExpConfig, mode string, seed int64) (*EdgePoint, error) {
	if mode != EdgeModeOff && mode != EdgeModeOn {
		return nil, fmt.Errorf("experiments: unknown edge mode %q", mode)
	}
	if cfg.BaseLoad <= 0 {
		return nil, fmt.Errorf("experiments: non-positive base load %v", cfg.BaseLoad)
	}
	if len(cfg.Phases) == 0 {
		return nil, fmt.Errorf("experiments: edge needs a phase schedule")
	}

	corpus := media.StandardCorpus(uint64(seed))
	dc := deploy.Config{Videos: corpus}
	if mode == EdgeModeOn {
		dc.Edge = &deploy.EdgeTier{Sites: cfg.Sites, Config: cfg.Edge}
	}
	w, err := deploy.Open(dc)
	if err != nil {
		return nil, err
	}

	out := &EdgePoint{Mode: mode, Startup: &stats.Sample{}}
	jitter := simtime.NewRand(seed ^ 0x5eed)
	gen := workload.New(workload.Config{
		Seed:             seed,
		Videos:           corpus,
		Sites:            w.Cluster.Sites(),
		MeanInterArrival: simtime.Seconds(1 / cfg.BaseLoad),
		ZipfSkew:         cfg.ZipfSkew,
		Phases:           cfg.Phases,
	})
	if err := out.serveAll("edge", w, gen, cfg.Horizon(), serveHooks{
		verdict: func(d *core.Delivery, err error, _ simtime.Time) {
			if err == nil {
				out.observeAdmission(cfg, w.Cluster, d, jitter)
			}
		},
	}); err != nil {
		return nil, err
	}
	ms := w.Manager.Stats()
	out.SplitAdmissions = ms.SplitAdmissions
	out.Handovers = ms.Handovers
	if w.Edge != nil {
		out.Edge = w.Edge.Stats()
	}
	return out, nil
}

// observeAdmission records the modeled startup latency and the planned
// per-tier byte load of one admitted delivery.
func (out *EdgePoint) observeAdmission(cfg EdgeExpConfig, cluster *core.Cluster, d *core.Delivery, jitter *simtime.Rand) {
	p := d.Plan
	v := d.Video()

	// The first frame comes from the delivery site: either an edge copy
	// (prefix leg of a split plan, or a promoted full edge replica) or an
	// origin. Bytes are attributed to the tier of the site that streams
	// them — a split plan's tail counts against the origin links.
	fromEdge := cluster.Dir.Tier(p.DeliverySite) == metadata.TierEdge
	rtt := cfg.OriginRTTms
	if fromEdge {
		rtt = cfg.EdgeRTTms
	}
	fill := 0.0
	if u, c, err := cluster.Usage(p.DeliverySite); err == nil {
		fill = p.DeliveryDemand.MaxFillRatio(u, c)
		if fill > 1 {
			fill = 1
		}
	}
	// One round trip to the first-frame site, an M/M/1-style queueing term
	// that blows up as the serving site approaches saturation (this is what
	// separates the tails: offload keeps origin fill lower during the flash
	// crowd), and ±10% deterministic jitter.
	ms := rtt + cfg.QueueMs*fill/(1.1-fill)
	ms *= 0.9 + 0.2*jitter.Float64()
	out.Startup.Add(ms)

	switch {
	case p.Split():
		out.EdgeBytes += legBytes(v, p.Replica.Variant, 0, p.SplitFrame)
		out.OriginBytes += legBytes(v, p.TailReplica.Variant, p.SplitFrame, v.Frames())
	case fromEdge:
		out.EdgeBytes += legBytes(v, p.Replica.Variant, 0, v.Frames())
	default:
		out.OriginBytes += legBytes(v, p.Replica.Variant, 0, v.Frames())
	}
}

// Edge sweeps the two modes as runner points. Not part of -exp all: the
// flash-crowd drain runs long past the ramp.
var Edge = &Spec[EdgeExpConfig, *EdgePoint]{
	name: "edge",
	config: func(s Settings) (EdgeExpConfig, error) {
		cfg := DefaultEdgeExpConfig()
		cfg.Seed = s.Seed
		return cfg, nil
	},
	points: func(EdgeExpConfig) []runner.Point {
		return []runner.Point{
			{Key: EdgeModeOff, Label: "origin-only"},
			{Key: EdgeModeOn, Label: "edge tier"},
		}
	},
	run: RunEdgePoint,
	columns: []column[*EdgePoint]{
		label("mode", func(p *EdgePoint) string { return p.Mode }),
		count("queries", func(p *EdgePoint) int { return p.Queries }),
		count("admitted", func(p *EdgePoint) int { return p.Admitted }),
		count("rejected", func(p *EdgePoint) int { return p.Rejected }),
		num("reject_rate", "%.4f", (*EdgePoint).RejectRate),
		count("completed", func(p *EdgePoint) int { return p.Completed }),
		count("failed", func(p *EdgePoint) int { return p.Failed }),
		count("split_admissions", func(p *EdgePoint) int { return int(p.SplitAdmissions) }),
		count("handovers", func(p *EdgePoint) int { return int(p.Handovers) }),
		num("startup_ms_p50", "%.2f", func(p *EdgePoint) float64 { return p.Startup.Percentile(50) }),
		num("startup_ms_p90", "%.2f", func(p *EdgePoint) float64 { return p.Startup.Percentile(90) }),
		num("startup_ms_p99", "%.2f", func(p *EdgePoint) float64 { return p.Startup.Percentile(99) }),
		num("edge_hit_ratio", "%.4f", func(p *EdgePoint) float64 { return p.Edge.HitRatio() }),
		count("edge_installs", func(p *EdgePoint) int { return int(p.Edge.Installs) }),
		count("edge_evictions", func(p *EdgePoint) int { return int(p.Edge.Evictions) }),
		count("edge_promotions", func(p *EdgePoint) int { return int(p.Edge.Promotions) }),
		mean("origin_mb", "%.1f", func(p *EdgePoint) float64 { return float64(p.OriginBytes) / (1 << 20) }),
		mean("edge_mb", "%.1f", func(p *EdgePoint) float64 { return float64(p.EdgeBytes) / (1 << 20) }),
		num("origin_offload", "%.4f", (*EdgePoint).OffloadFraction),
	},
	report: FormatEdge,
	archive: &archive[EdgeExpConfig, *EdgePoint]{
		rows: "modes",
		head: func(c EdgeExpConfig, reps int) object {
			return append(horizonHead(EdgeExpConfig.Horizon)(c, reps), field{"zipf_skew", c.ZipfSkew})
		},
	},
}

// FormatEdge renders the comparison as a console table.
func FormatEdge(cfg EdgeExpConfig, points []*EdgePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "edge: %.0f s diurnal + flash crowd, Zipf %.1f, %d edge sites @ %d MB",
		simtime.ToSeconds(cfg.Horizon()), cfg.ZipfSkew, len(cfg.Sites), cfg.Edge.ByteBudget>>20)
	if len(points) > 0 && points[0].reps() > 1 {
		fmt.Fprintf(&b, "  (mean of %d replicas)", points[0].reps())
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "%-10s %8s %9s %8s %7s %7s %10s %10s %10s %9s %9s\n",
		"mode", "queries", "admitted", "rejects", "splits", "handoff",
		"start-p50", "start-p99", "hit-ratio", "origin-MB", "offload")
	for _, p := range points {
		reps := p.reps()
		fmt.Fprintf(&b, "%-10s %8s %9s %8s %7s %7s %10.1f %10.1f %10.3f %9.1f %9.3f\n",
			p.Mode, fmtCount(p.Queries, reps), fmtCount(p.Admitted, reps),
			fmtCount(p.Rejected, reps), fmtCount(int(p.SplitAdmissions), reps),
			fmtCount(int(p.Handovers), reps),
			p.Startup.Percentile(50), p.Startup.Percentile(99),
			p.Edge.HitRatio(), float64(p.OriginBytes)/float64(reps)/(1<<20),
			p.OffloadFraction())
	}
	return strings.TrimRight(b.String(), "\n")
}
