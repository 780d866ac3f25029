package experiments

import (
	"bytes"
	"io"
	"testing"

	"quasaq/internal/runner"
	"quasaq/internal/simtime"
)

// The Scenario/Runner contract: output bytes depend only on (config, seed,
// replicas) — never on the worker count or goroutine scheduling. Every
// registered experiment is pinned by one table for workers=1 vs workers=8
// and for two repeated runs with the same seed, through the same Output
// qsqbench prints and writes: reports, side files, CSV, and JSON record.

func detThroughputCfg() ThroughputConfig {
	return ThroughputConfig{Seed: 11, Horizon: simtime.Seconds(120), Bucket: simtime.Seconds(20)}
}

// detCase sizes one registered experiment down for the gate.
type detCase struct {
	cfg  func() any
	reps int
	// wallClock experiments measure real time in their reports and records:
	// those still run (so every archiver and merge executes) but only the
	// CSV is compared.
	wallClock bool
	// named experiments are gated by their own Test*Deterministic entry
	// point below rather than by a subtest of TestRegistryDeterministic.
	named bool
}

var detCases = map[string]detCase{
	"fig5": {cfg: func() any {
		cfg := DefaultFig5Config()
		cfg.Frames = 120
		return cfg
	}, reps: 2, named: true},
	"fig6":       {cfg: func() any { return detThroughputCfg() }, reps: 3, named: true},
	"fig7":       {cfg: func() any { return detThroughputCfg() }, reps: 2},
	"throughput": {cfg: func() any { return detThroughputCfg() }, reps: 2},
	"ablation":   {cfg: func() any { return detThroughputCfg() }, reps: 2, named: true},
	"dynamic":    {cfg: func() any { return detThroughputCfg() }, reps: 2, named: true},
	"admission": {cfg: func() any {
		cfg := DefaultAdmissionConfig()
		cfg.Horizon = simtime.Seconds(40)
		cfg.Loads = []float64{1, 4}
		return cfg
	}, reps: 3, named: true},
	"overhead": {cfg: func() any { return overheadConfig{Seed: 3, Queries: 50} }, reps: 2, wallClock: true},
	"chaos": {cfg: func() any {
		cfg := DefaultChaosConfig()
		cfg.Horizon = simtime.Seconds(300)
		return cfg
	}, reps: 3, named: true},
	"overload":  {cfg: func() any { return detOverloadCfg() }, reps: 2, named: true},
	"transcode": {cfg: func() any { return detTranscodeCfg() }, reps: 2, named: true},
	"saturate": {cfg: func() any { return saturateRun{SaturateConfig: smallSaturateConfig()} },
		reps: 2, wallClock: true, named: true},
	"sla":  {cfg: func() any { return detSLACfg() }, reps: 2, named: true},
	"edge": {cfg: func() any { return detEdgeCfg() }, reps: 2, named: true},
}

func TestRegistryDeterministic(t *testing.T) {
	for _, e := range Registry() {
		c, ok := detCases[e.Name()]
		if !ok {
			t.Errorf("experiment %q has no determinism case", e.Name())
			continue
		}
		if !c.named {
			t.Run(e.Name(), func(t *testing.T) { assertDeterministic(t, e.Name()) })
		}
	}
}

func TestFig5CSVDeterministic(t *testing.T)       { assertDeterministic(t, "fig5") }
func TestThroughputCSVDeterministic(t *testing.T) { assertDeterministic(t, "fig6") }
func TestAblationCSVDeterministic(t *testing.T)   { assertDeterministic(t, "ablation") }
func TestDynamicDeterministic(t *testing.T)       { assertDeterministic(t, "dynamic") }
func TestAdmissionCSVDeterministic(t *testing.T)  { assertDeterministic(t, "admission") }
func TestChaosCSVDeterministic(t *testing.T)      { assertDeterministic(t, "chaos") }
func TestOverloadCSVDeterministic(t *testing.T)   { assertDeterministic(t, "overload") }
func TestTranscodeCSVDeterministic(t *testing.T)  { assertDeterministic(t, "transcode") }
func TestSaturateCSVDeterministic(t *testing.T)   { assertDeterministic(t, "saturate") }
func TestSLACSVDeterministic(t *testing.T)        { assertDeterministic(t, "sla") }
func TestEdgeCSVDeterministic(t *testing.T)       { assertDeterministic(t, "edge") }

// assertDeterministic runs one registered experiment's case serially, on
// eight workers, and on eight workers again, and requires identical bytes.
func assertDeterministic(t *testing.T, name string) {
	t.Helper()
	exps, err := Select(name)
	if err != nil {
		t.Fatal(err)
	}
	e, c := exps[0], detCases[name]
	render := func(workers int) []byte {
		s := Settings{Sweep: runner.Options{Workers: workers, Replicas: c.reps}, MetricsFile: "metrics.json"}
		out, err := e.runConfig(s, c.cfg())
		if err != nil {
			t.Fatal(err)
		}
		var det, all bytes.Buffer
		if out.CSV != nil {
			if err := out.CSV(&det); err != nil {
				t.Fatal(err)
			}
		}
		w := io.Writer(&det)
		if c.wallClock {
			w = &all
		}
		for _, r := range out.Reports {
			io.WriteString(w, r.Text)
		}
		for _, f := range out.Files {
			if err := f.Write(w); err != nil {
				t.Fatal(err)
			}
		}
		if out.Record != nil {
			if err := out.Record(w); err != nil {
				t.Fatal(err)
			}
		}
		if len(bytes.TrimSpace(det.Bytes())) == 0 && len(bytes.TrimSpace(all.Bytes())) == 0 {
			t.Fatalf("%s: empty output", name)
		}
		return det.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	again := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("%s: workers=1 and workers=8 outputs differ:\n%s\nvs\n%s", name, serial, parallel)
	}
	if !bytes.Equal(parallel, again) {
		t.Fatalf("%s: two identical runs differ", name)
	}
}

// A single-replica sweep must reproduce the plain serial driver exactly:
// replica 0 runs the base seed itself.
func TestSingleReplicaMatchesSerialRun(t *testing.T) {
	cfg := detThroughputCfg()
	direct, err := RunThroughput(SysQuaSAQ, cfg)
	if err != nil {
		t.Fatal(err)
	}
	series, err := RunSweep(Fig6, cfg, runner.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	swept := series[2] // quasaq point
	if swept.Queries != direct.Queries || swept.Admitted != direct.Admitted ||
		swept.Rejected != direct.Rejected || swept.QoSOK != direct.QoSOK {
		t.Fatalf("swept quasaq point %+v differs from direct run %+v", swept, direct)
	}
}

// Replica streams are independent: the merged counters over N replicas are
// the sum of the N individual runs, each under its derived seed.
func TestReplicaMergeMatchesIndividualRuns(t *testing.T) {
	cfg := detThroughputCfg()
	const reps = 3
	var wantQueries, wantQoSOK int
	for i := 0; i < reps; i++ {
		c := cfg
		c.Seed = simtime.ReplicaSeed(cfg.Seed, i)
		s, err := RunThroughput(SysQuaSAQ, c)
		if err != nil {
			t.Fatal(err)
		}
		wantQueries += s.Queries
		wantQoSOK += s.QoSOK
	}
	series, err := RunSweep(Fig6, cfg, runner.Options{Workers: 4, Replicas: reps})
	if err != nil {
		t.Fatal(err)
	}
	got := series[2]
	if got.Reps() != reps {
		t.Fatalf("Reps = %d, want %d", got.Reps(), reps)
	}
	if got.Queries != wantQueries || got.QoSOK != wantQoSOK {
		t.Fatalf("merged counters %d/%d, want %d/%d", got.Queries, got.QoSOK, wantQueries, wantQoSOK)
	}
}
