package experiments

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"quasaq/internal/broker"
	"quasaq/internal/core"
	"quasaq/internal/deploy"
	"quasaq/internal/media"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/stats"
	"quasaq/internal/workload"
)

// Admission-latency-vs-load: with the control plane switched to message
// passing (testbed latencies), every admission pays its two-phase
// reservation round trips, and under load the extra prepares of failed
// plan attempts and rollbacks stretch the tail. This experiment sweeps the
// query arrival rate and reports the admission-decision latency
// distribution per load level — the control-plane cost the paper's
// single-host prototype never had to pay.

// AdmissionConfig parameterizes the sweep.
type AdmissionConfig struct {
	Seed    int64
	Horizon simtime.Time // query arrival window per load level
	Loads   []float64    // arrival rates, queries per second
	Ctrl    broker.Config
}

// DefaultAdmissionConfig sweeps 0.5-8 qps for 200 s under the paper's LAN
// control-plane parameters.
func DefaultAdmissionConfig() AdmissionConfig {
	return AdmissionConfig{
		Seed:    17,
		Horizon: simtime.Seconds(200),
		Loads:   []float64{0.5, 1, 2, 4, 8},
		Ctrl:    broker.TestbedConfig(),
	}
}

// AdmissionPoint is one load level's outcome: admission counters plus the
// decision-latency sample (milliseconds from query arrival to the
// admit/reject verdict, two-phase reservations included).
type AdmissionPoint struct {
	Load         float64 `merge:"first"`
	Queries      int
	Admitted     int
	Rejected     int
	CtrlTimeouts int // rejections whose cause chain includes ErrControlTimeout
	Latency      *stats.Sample

	// Replicas counts merged replica runs (0 or 1 means a single run).
	Replicas int `merge:"reps"`
}

func (p *AdmissionPoint) reps() int { return max(1, p.Replicas) }

// RunAdmissionPoint measures one load level in a hermetic world.
func RunAdmissionPoint(cfg AdmissionConfig, load float64, seed int64) (*AdmissionPoint, error) {
	if load <= 0 {
		return nil, fmt.Errorf("experiments: non-positive load %v", load)
	}
	corpus := media.StandardCorpus(uint64(seed))
	w, err := deploy.Open(deploy.Config{Videos: corpus, Control: cfg.Ctrl})
	if err != nil {
		return nil, err
	}
	sim, mgr := w.Sim, w.Manager

	out := &AdmissionPoint{Load: load, Latency: &stats.Sample{}}
	gen := workload.New(workload.Config{
		Seed:             seed,
		Videos:           corpus,
		Sites:            w.Cluster.Sites(),
		MeanInterArrival: simtime.Seconds(1 / load),
	})
	gen.Drive(sim, cfg.Horizon, func(r workload.Request) {
		out.Queries++
		arrived := sim.Now()
		mgr.ServiceAsync(r.Site, r.Video, r.Req, core.ServiceOptions{}, func(_ *core.Delivery, err error) {
			out.Latency.Add(1000 * simtime.ToSeconds(sim.Now()-arrived))
			if err != nil {
				out.Rejected++
				if errors.Is(err, core.ErrControlTimeout) {
					out.CtrlTimeouts++
				}
				return
			}
			out.Admitted++
		})
	})
	// Run past the horizon so every in-flight two-phase reservation settles;
	// the slack generously covers a full retry budget plus rollback.
	ctrl := cfg.Ctrl.Normalized()
	slack := 2 * simtime.Time(ctrl.Retries+2) * (ctrl.Timeout + ctrl.PrepareTTL)
	sim.RunUntil(cfg.Horizon + slack + simtime.Seconds(1))
	if got := out.Admitted + out.Rejected; got != out.Queries {
		return nil, fmt.Errorf("experiments: %d of %d admissions never settled", out.Queries-got, out.Queries)
	}
	return out, nil
}

// Admission sweeps the load grid; each load level is a point.
var Admission = &Spec[AdmissionConfig, *AdmissionPoint]{
	name:  "admission",
	inAll: true,
	config: func(s Settings) (AdmissionConfig, error) {
		cfg := DefaultAdmissionConfig()
		cfg.Seed = s.Seed
		cfg.Horizon = simtime.Seconds(s.AdmissionHorizon)
		cfg.Ctrl = broker.Config{
			Latency: simtime.Seconds(s.CtrlLatencyMs / 1000),
			Timeout: simtime.Seconds(s.CtrlTimeoutMs / 1000),
			Retries: s.CtrlRetries,
			Loss:    s.CtrlLoss,
			Seed:    s.Seed,
		}
		return cfg, nil
	},
	points: func(cfg AdmissionConfig) []runner.Point {
		pts := make([]runner.Point, len(cfg.Loads))
		for i, load := range cfg.Loads {
			pts[i] = runner.Point{
				Key:   "load-" + strconv.FormatFloat(load, 'g', -1, 64),
				Label: fmt.Sprintf("%g qps", load),
			}
		}
		return pts
	},
	run: func(cfg AdmissionConfig, key string, seed int64) (*AdmissionPoint, error) {
		load, err := strconv.ParseFloat(strings.TrimPrefix(key, "load-"), 64)
		if err != nil {
			return nil, fmt.Errorf("experiments: bad admission point key %q", key)
		}
		return RunAdmissionPoint(cfg, load, seed)
	},
	// Counters of replica-merged points emit cross-replica means; the
	// latency quantiles read the pooled cross-replica sample.
	columns: []column[*AdmissionPoint]{
		num("load_qps", "%v", func(p *AdmissionPoint) float64 { return p.Load }),
		count("queries", func(p *AdmissionPoint) int { return p.Queries }),
		count("admitted", func(p *AdmissionPoint) int { return p.Admitted }),
		count("rejected", func(p *AdmissionPoint) int { return p.Rejected }),
		count("ctrl_timeouts", func(p *AdmissionPoint) int { return p.CtrlTimeouts }),
		num("mean_ms", "%.3f", func(p *AdmissionPoint) float64 { return p.Latency.Summary().Mean() }),
		num("p50_ms", "%.3f", func(p *AdmissionPoint) float64 { return p.Latency.Percentile(50) }),
		num("p95_ms", "%.3f", func(p *AdmissionPoint) float64 { return p.Latency.Percentile(95) }),
		num("max_ms", "%.3f", func(p *AdmissionPoint) float64 { return p.Latency.Summary().Max() }),
	},
	report: FormatAdmission,
}

// FormatAdmission renders the sweep as a report table.
func FormatAdmission(cfg AdmissionConfig, points []*AdmissionPoint) string {
	var b strings.Builder
	c := cfg.Ctrl.Normalized()
	fmt.Fprintf(&b, "Admission latency vs load  (ctrl: latency %v, timeout %v, %d retries, TTL %v)",
		c.Latency, c.Timeout, c.Retries, c.PrepareTTL)
	if len(points) > 0 && points[0].reps() > 1 {
		fmt.Fprintf(&b, "  (mean of %d replicas)", points[0].reps())
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%10s %9s %9s %9s %9s %10s %10s %10s %10s\n",
		"load(qps)", "queries", "admitted", "rejected", "ctrl-t/o",
		"mean(ms)", "p50(ms)", "p95(ms)", "max(ms)")
	for _, p := range points {
		reps := p.reps()
		sum := p.Latency.Summary()
		fmt.Fprintf(&b, "%10g %9s %9s %9s %9s %10.3f %10.3f %10.3f %10.3f\n",
			p.Load, fmtCount(p.Queries, reps), fmtCount(p.Admitted, reps),
			fmtCount(p.Rejected, reps), fmtCount(p.CtrlTimeouts, reps),
			sum.Mean(), p.Latency.Percentile(50), p.Latency.Percentile(95), sum.Max())
	}
	return b.String()
}
