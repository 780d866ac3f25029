package experiments

import (
	"testing"

	"quasaq/internal/runner"
)

func smallSaturateConfig() SaturateConfig {
	cfg := DefaultSaturateConfig()
	cfg.Sessions = 3000
	cfg.Live = 300
	cfg.Goroutines = 4
	cfg.FlushEvery = 16
	return cfg
}

// TestSaturateFidelityHashesMatch is the acceptance pin: the
// broker-serialized slow path and the VSA accumulator must make the exact
// same admit/reject call on every session of a saturated stream — the
// fixed-point bookkeeping may never change a decision.
func TestSaturateFidelityHashesMatch(t *testing.T) {
	points, err := RunSweep(Saturate, saturateRun{SaturateConfig: smallSaturateConfig()}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	broker, vsa := points[0], points[1]
	if broker.Mode != "broker" || vsa.Mode != "vsa" {
		t.Fatalf("unexpected point order: %q, %q", broker.Mode, vsa.Mode)
	}
	if broker.DecisionHash != vsa.DecisionHash {
		t.Fatalf("decision sequences diverged: broker %016x (%d/%d) vs vsa %016x (%d/%d)",
			broker.DecisionHash, broker.Admitted, broker.Rejected,
			vsa.DecisionHash, vsa.Admitted, vsa.Rejected)
	}
	if broker.Admitted != vsa.Admitted || broker.Rejected != vsa.Rejected {
		t.Fatalf("counts diverged: broker %d/%d vs vsa %d/%d",
			broker.Admitted, broker.Rejected, vsa.Admitted, vsa.Rejected)
	}
	// A stream that never rejects (or never admits) pins nothing.
	if broker.Admitted == 0 || broker.Rejected == 0 {
		t.Fatalf("workload produced admitted=%d rejected=%d, want both nonzero", broker.Admitted, broker.Rejected)
	}
}

// TestSaturateThroughputSmoke runs both wall-clock modes small and checks
// the bookkeeping, not the speed: all sessions decided, quantiles sane.
func TestSaturateThroughputSmoke(t *testing.T) {
	cfg := smallSaturateConfig()
	ts, err := RunSaturateThroughputPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range ts {
		if tp.Admitted+tp.Rejected != cfg.Sessions {
			t.Fatalf("%s: %d decisions for %d sessions", tp.Mode, tp.Admitted+tp.Rejected, cfg.Sessions)
		}
		if tp.Admitted == 0 || tp.Rejected == 0 {
			t.Fatalf("%s: admitted=%d rejected=%d, want both nonzero", tp.Mode, tp.Admitted, tp.Rejected)
		}
		if tp.AdmissionsPerSec <= 0 || tp.P99us < tp.P50us {
			t.Fatalf("%s: nonsense stats %+v", tp.Mode, tp)
		}
	}
}
