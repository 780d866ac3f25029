// Command qsqbench regenerates the paper's tables and figures, and the
// extensions built on them, from the simulated testbed.
//
// Usage:
//
//	qsqbench -exp NAME [flags]   # one experiment (or report) from the registry
//	qsqbench -exp all            # every experiment marked for the full run
//
// The experiments are the ordered registry in internal/experiments; `qsqbench
// -h` lists every -exp value. They are:
//
//	fig5       Figure 5: inter-frame delay panels (its Table 2 report: -exp table2)
//	fig6       Figure 6: three-system throughput
//	fig7       Figure 7: LRB vs random cost model
//	throughput full system sweep (all six systems; not in -exp all)
//	ablation   cost-model and replication ablations
//	dynamic    online replication from single-copy storage
//	admission  admission latency vs load over the control plane
//	overhead   §5.2 planner and scheduler overhead
//	chaos      fault injection + mid-stream failover
//	overload   load ramp past capacity: guardian + breaker vs baseline
//	transcode  farm worker-class mixes: dollars vs p99 startup delay
//	saturate   admission hot path at 10^5-10^6 sessions: broker vs VSA fast path
//	sla        clause-strictness tiers: violation rates + QoE percentiles from the qoe table
//	edge       edge proxy-cache tier vs origin-only: startup tails + origin offload
//
// The last five are not part of -exp all: their drains (or, for saturate,
// its wall-clock pass) run long past the others.
//
// Every experiment is a grid of hermetic (point × replica) simulation
// cells, executed by internal/runner on a bounded worker pool: -parallel
// caps the workers (default GOMAXPROCS), -replicas repeats every point
// under independently derived seeds (replica 0 runs -seed itself), and the
// output is byte-identical for any -parallel value — only the wall-clock
// changes. `-replicas 8 -parallel 8` is how confidence intervals over many
// seeds become cheap enough to be the default.
//
// Each run prints its report; -csv DIR also writes the experiment's CSV as
// DIR/<name>.csv, and -bench FILE archives the run as a JSON benchmark
// record for the experiments that have one (overload, transcode, saturate,
// sla, edge). -bench with any other experiment, or with -exp all, is an
// error.
//
// The admission experiment runs the distributed control plane with real
// message latencies: -ctrl-latency-ms, -ctrl-timeout-ms, -ctrl-retries and
// -ctrl-loss shape the PREPARE/COMMIT/ABORT traffic (defaults match the
// paper's LAN testbed), and each load level is one hermetic sweep point.
//
// The chaos experiment accepts -faults pointing at a fault-schedule file
// (see internal/faults for the text format); without it the canonical
// schedule runs. With -trace out.json it also records per-session pipeline
// spans and writes them as Chrome trace_event JSON (open in chrome://tracing
// or ui.perfetto.dev); -metrics out.json dumps the full metrics registry.
//
// Horizons are configurable; the defaults match the paper (1000 s for
// Figure 6, 7000 s for Figure 7).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"quasaq/internal/experiments"
)

// options carries every CLI knob: the experiment selection, the output
// destinations, and the experiment settings themselves.
type options struct {
	exp      string
	csvDir   string
	benchOut string
	s        experiments.Settings
}

func main() {
	o, err := parseFlags(os.Args[1:])
	switch {
	case err == flag.ErrHelp:
		return
	case err != nil:
		os.Exit(2) // the flag set already printed the error and usage
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qsqbench:", err)
		os.Exit(1)
	}
}

// parseFlags binds the command line onto options.
func parseFlags(args []string) (options, error) {
	var names, archived []string
	for _, e := range experiments.Registry() {
		names = append(names, e.Names()...)
		if e.Archived() {
			archived = append(archived, e.Name())
		}
	}
	var o options
	s := &o.s
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.StringVar(&o.exp, "exp", "all", "experiment: "+strings.Join(names, "|")+"|all")
	fs.Int64Var(&s.Seed, "seed", 11, "workload seed (replica 0 runs this seed itself)")
	fs.IntVar(&s.Sweep.Workers, "parallel", 0, "worker pool size for sweep cells (0 = GOMAXPROCS)")
	fs.IntVar(&s.Sweep.Replicas, "replicas", 1, "independently seeded repetitions of every sweep point")
	fs.IntVar(&s.Frames, "frames", 1000, "fig5: trace length in frames")
	fs.IntVar(&s.Contention, "contention", 45, "fig5: competing streams at high contention")
	fs.Float64Var(&s.Fig6Horizon, "fig6-horizon", 1000, "fig6/throughput: simulated seconds")
	fs.Float64Var(&s.Fig7Horizon, "fig7-horizon", 7000, "fig7: simulated seconds")
	fs.IntVar(&s.OverheadQueries, "overhead-queries", 500, "overhead: planning calls to time")
	fs.Float64Var(&s.ChaosHorizon, "chaos-horizon", 600, "chaos: simulated seconds")
	fs.StringVar(&s.FaultsFile, "faults", "", "chaos: fault-schedule file (default: canonical schedule)")
	fs.StringVar(&o.csvDir, "csv", "", "also write series CSVs into this directory")
	fs.StringVar(&s.TraceFile, "trace", "", "chaos: write Chrome trace_event JSON of every session here")
	fs.StringVar(&s.MetricsFile, "metrics", "", "chaos: write the metrics registry as JSON here")
	fs.Float64Var(&s.AdmissionHorizon, "admission-horizon", 200, "admission: query arrival window in simulated seconds")
	fs.Float64Var(&s.CtrlLatencyMs, "ctrl-latency-ms", 5, "admission: one-way control-message latency (0 = synchronous)")
	fs.Float64Var(&s.CtrlTimeoutMs, "ctrl-timeout-ms", 40, "admission: per-attempt control RPC timeout")
	fs.IntVar(&s.CtrlRetries, "ctrl-retries", 2, "admission: control RPC retries after the first attempt")
	fs.Float64Var(&s.CtrlLoss, "ctrl-loss", 0, "admission: control-message loss probability in [0,1)")
	fs.Float64Var(&s.OverloadScale, "overload-scale", 1, "overload: shrink (<1) or stretch (>1) the ramp and fault times")
	fs.StringVar(&o.benchOut, "bench", "", strings.Join(archived, "/")+": archive the run as a JSON benchmark record here")
	fs.IntVar(&s.Sessions, "sessions", 100000, "saturate: total session arrivals")
	fs.IntVar(&s.Live, "live", 20000, "saturate: sliding-window depth of concurrently live sessions")
	fs.IntVar(&s.Goroutines, "goroutines", 8, "saturate: concurrent admission loops in the throughput pass")
	fs.Float64Var(&s.Zipf, "zipf", 1.1, "saturate: video-popularity skew exponent (>1)")
	err := fs.Parse(args)
	return o, err
}

// run executes every experiment the -exp value selects, in registry order:
// its reports, then its side files, its CSV, and its benchmark record.
func run(o options, stdout io.Writer) error {
	exps, err := experiments.Select(o.exp)
	if err != nil {
		return err
	}
	if o.benchOut != "" {
		for _, e := range exps {
			if !e.Archived() {
				return fmt.Errorf("-bench: experiment %q has no JSON benchmark record", e.Name())
			}
		}
	}
	for _, e := range exps {
		out, err := e.Run(o.s)
		if err != nil {
			return err
		}
		for _, r := range out.Reports {
			if o.exp == "all" || o.exp == r.Name {
				fmt.Fprintln(stdout, r.Text)
			}
		}
		for _, f := range out.Files {
			if err := writeFile(stdout, f.Path, f.Write); err != nil {
				return err
			}
		}
		if o.csvDir != "" && out.CSV != nil {
			if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
				return err
			}
			if err := writeFile(stdout, filepath.Join(o.csvDir, e.Name()+".csv"), out.CSV); err != nil {
				return err
			}
		}
		if o.benchOut != "" {
			if err := writeFile(stdout, o.benchOut, out.Record); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeFile streams an exporter into path and reports it.
func writeFile(stdout io.Writer, path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", path)
	return nil
}
