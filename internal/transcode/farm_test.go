package transcode

import (
	"fmt"
	"testing"

	"quasaq/internal/obs"
	"quasaq/internal/simtime"
)

func newTestFarm(t *testing.T, cfg FarmConfig) (*simtime.Simulator, *Farm, *obs.Registry) {
	t.Helper()
	sim := simtime.NewSimulator()
	reg := obs.NewRegistry()
	f, err := NewFarm(sim, cfg, reg)
	if err != nil {
		t.Fatalf("NewFarm: %v", err)
	}
	return sim, f, reg
}

// The zero config must normalize to the timing-neutral instant farm: jobs
// complete synchronously inside Submit with zero simulator events, so a
// staged pipeline on top of it is byte-identical to the inline path.
func TestZeroConfigIsNeutralAndInstant(t *testing.T) {
	sim, f, _ := newTestFarm(t, FarmConfig{})
	if !f.Neutral() {
		t.Fatal("zero config not Neutral")
	}
	before := sim.Executed()
	var doneAt simtime.Time = -1
	f.Submit(5.0, 0, func(at simtime.Time) { doneAt = at })
	if doneAt != sim.Now() {
		t.Fatalf("instant job completed at %v; want %v (synchronous)", doneAt, sim.Now())
	}
	sim.Run()
	if got := sim.Executed() - before; got != 0 {
		t.Fatalf("instant farm scheduled %d events; want 0", got)
	}
	s := f.Stats()
	if s.Jobs != 1 || s.Completed != 1 || s.DeadlineMiss != 0 || s.Dollars != 0 {
		t.Fatalf("stats = %+v; want 1 job, 1 completed, 0 miss, $0", s)
	}
}

func TestFiniteWorkerServiceTimeAndDeadlineMiss(t *testing.T) {
	sim, f, reg := newTestFarm(t, FarmConfig{
		Classes: []WorkerClass{{Name: "std", Speed: 2, MinWorkers: 1, MaxWorkers: 1}},
	})
	// 4 CPU-seconds at speed 2 -> 2s service. Deadline at 1s: a miss.
	var hit, miss simtime.Time = -1, -1
	f.Submit(4.0, simtime.Seconds(1), func(at simtime.Time) { miss = at })
	// Queued behind it (EDF keeps order), deadline comfortably far.
	f.Submit(2.0, simtime.Seconds(60), func(at simtime.Time) { hit = at })
	sim.Run()
	if want := simtime.Seconds(2); miss != want {
		t.Fatalf("first job done at %v; want %v", miss, want)
	}
	if want := simtime.Seconds(3); hit != want {
		t.Fatalf("second job done at %v; want %v", hit, want)
	}
	s := f.Stats()
	if s.DeadlineMiss != 1 || s.Completed != 2 {
		t.Fatalf("stats = %+v; want 1 miss of 2", s)
	}
	found := false
	for _, m := range reg.Snapshot() {
		if m.Name == "quasaq_transcode_deadline_miss_total" {
			found = true
			if m.Value != 1 {
				t.Fatalf("miss counter = %v; want 1", m.Value)
			}
		}
	}
	if !found {
		t.Fatal("quasaq_transcode_deadline_miss_total not exported")
	}
}

// EDF: a later-submitted job with an earlier deadline runs first once a
// worker frees up.
func TestEarliestDeadlineFirst(t *testing.T) {
	sim, f, _ := newTestFarm(t, FarmConfig{
		Classes: []WorkerClass{{Name: "std", Speed: 1, MinWorkers: 1, MaxWorkers: 1}},
	})
	var order []string
	f.Submit(1, simtime.Seconds(100), func(simtime.Time) { order = append(order, "running") })
	f.Submit(1, simtime.Seconds(50), func(simtime.Time) { order = append(order, "late-submit-early-deadline") })
	f.Submit(1, simtime.Seconds(90), func(simtime.Time) { order = append(order, "mid") })
	sim.Run()
	want := []string{"running", "late-submit-early-deadline", "mid"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order %v; want %v", order, want)
		}
	}
}

// Dispatch prefers the fastest free worker; the slow class only runs jobs
// when the fast class is saturated.
func TestDispatchPrefersFastestClass(t *testing.T) {
	sim, f, _ := newTestFarm(t, FarmConfig{
		Classes: []WorkerClass{
			{Name: "fast", Speed: 4, MinWorkers: 1, MaxWorkers: 1, DollarsPerHour: 4},
			{Name: "slow", Speed: 1, MinWorkers: 1, MaxWorkers: 1, DollarsPerHour: 1},
		},
	})
	var first simtime.Time = -1
	f.Submit(4, simtime.Seconds(600), func(at simtime.Time) { first = at })
	sim.Run()
	if want := simtime.Seconds(1); first != want {
		t.Fatalf("job done at %v; want %v (on the fast worker)", first, want)
	}
	s := f.Stats()
	for _, c := range s.PerClass {
		switch c.Name {
		case "fast":
			if c.BusySeconds != 1 {
				t.Fatalf("fast busy %v s; want 1", c.BusySeconds)
			}
		case "slow":
			if c.BusySeconds != 0 {
				t.Fatalf("slow busy %v s; want 0", c.BusySeconds)
			}
		}
	}
}

// The autoscaler grows the fleet under backlog, pays startup latency, and
// retires idle workers once the queue drains — and its ticker self-stops so
// the simulator can drain.
func TestAutoscaleUpAndDown(t *testing.T) {
	sim, f, _ := newTestFarm(t, FarmConfig{
		Classes: []WorkerClass{{
			Name: "std", Speed: 1, Startup: simtime.Seconds(2),
			DollarsPerHour: 3.6, MinWorkers: 1, MaxWorkers: 4,
		}},
		Autoscale: AutoscaleConfig{Interval: simtime.Seconds(1), QueueHigh: 1, Step: 1},
	})
	for i := 0; i < 8; i++ {
		f.Submit(5, simtime.Seconds(10), func(simtime.Time) {})
	}
	sim.Run()
	s := f.Stats()
	if s.Completed != 8 {
		t.Fatalf("completed %d; want 8", s.Completed)
	}
	if s.ScaleUps == 0 {
		t.Fatal("autoscaler never scaled up under 8-deep backlog")
	}
	if s.ScaleDowns == 0 {
		t.Fatal("autoscaler never scaled down after drain")
	}
	if got := s.PerClass[0].Workers; got != 1 {
		t.Fatalf("fleet settled at %d workers; want MinWorkers=1", got)
	}
	if s.Dollars <= 0 {
		t.Fatal("no dollars accrued for a priced class")
	}
	if !f.idle() {
		t.Fatal("farm not idle after drain")
	}
	// Drained simulator: a fresh Run must be a no-op (ticker stopped).
	before := sim.Executed()
	sim.Run()
	if sim.Executed() != before {
		t.Fatal("ticker still live after farm drained")
	}
	// And a new submission re-arms everything.
	f.Submit(1, simtime.Seconds(1000), func(simtime.Time) {})
	sim.Run()
	if f.Stats().Completed != 9 {
		t.Fatal("submit after drain did not complete")
	}
}

// When the previous interval missed deadlines the scaler buys the fastest
// class; otherwise it buys the cheapest per unit speed.
func TestScaleUpClassSelection(t *testing.T) {
	_, f, _ := newTestFarm(t, FarmConfig{
		Classes: []WorkerClass{
			{Name: "fast", Speed: 4, DollarsPerHour: 8, MinWorkers: 0, MaxWorkers: 2},
			{Name: "econ", Speed: 1, DollarsPerHour: 1, MinWorkers: 0, MaxWorkers: 2},
		},
		Autoscale: AutoscaleConfig{Interval: simtime.Seconds(1)},
	})
	if got := f.scaleUpClass(false); got.cfg.Name != "econ" {
		t.Fatalf("calm scale-up chose %q; want econ (cheapest per speed)", got.cfg.Name)
	}
	if got := f.scaleUpClass(true); got.cfg.Name != "fast" {
		t.Fatalf("missed-deadline scale-up chose %q; want fast", got.cfg.Name)
	}
}

func TestConfigValidation(t *testing.T) {
	sim := simtime.NewSimulator()
	bad := []FarmConfig{
		{Classes: []WorkerClass{{Name: "a", Speed: -1}}},
		{Classes: []WorkerClass{{Name: "a"}, {Name: "a"}}},
		{Classes: []WorkerClass{{Name: "a", Startup: -1}}},
		{Classes: []WorkerClass{{Name: "a", DollarsPerHour: -1}}},
		{Classes: []WorkerClass{{Name: "a", MinWorkers: 5, MaxWorkers: 2}}},
		{Autoscale: AutoscaleConfig{Interval: -1}},
		{Classes: []WorkerClass{{Name: "a", Speed: 1, MaxWorkers: 4}, {Name: "b", MaxWorkers: 2}}},
	}
	for i, cfg := range bad {
		if _, err := NewFarm(sim, cfg, nil); err == nil {
			t.Fatalf("config %d accepted; want error", i)
		}
	}
	// Metrics registry is optional.
	if _, err := NewFarm(sim, FarmConfig{}, nil); err != nil {
		t.Fatalf("nil registry rejected: %v", err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() FarmStats {
		sim, f, _ := newTestFarm(t, FarmConfig{
			Classes: []WorkerClass{
				{Name: "fast", Speed: 4, Startup: simtime.Seconds(1), DollarsPerHour: 8, MinWorkers: 0, MaxWorkers: 3},
				{Name: "econ", Speed: 1, Startup: simtime.Seconds(5), DollarsPerHour: 1, MinWorkers: 1, MaxWorkers: 5},
			},
			Autoscale: AutoscaleConfig{Interval: simtime.Seconds(2), QueueHigh: 1},
		})
		for i := 0; i < 20; i++ {
			f.Submit(float64(1+i%4), simtime.Seconds(float64(5+i)), func(simtime.Time) {})
		}
		sim.Run()
		s := f.Stats()
		s.PerClass = nil // compared field-wise below
		return s
	}
	a, b := run(), run()
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Completed != 20 {
		t.Fatalf("completed %d; want 20", a.Completed)
	}
}
