package experiments

import (
	"testing"

	"quasaq/internal/runner"
	"quasaq/internal/simtime"
)

func TestDynamicReplicationConverges(t *testing.T) {
	cfg := ThroughputConfig{Seed: 17, Horizon: simtime.Seconds(400), Bucket: simtime.Seconds(20)}
	points, err := RunSweep(Dynamic, cfg, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	static, dynamic, full := points[0].Series, points[1].Series, points[2].Series
	if points[1].ReplicasCreated == 0 {
		t.Fatal("online replicator created nothing")
	}
	// Dynamic must clearly beat static single-copy (replicas arrive over
	// real link transfers, so the margin builds through the run) and stay
	// at or below the offline full ladder.
	if dynamic.Admitted < static.Admitted*3/2 {
		t.Fatalf("dynamic admitted %d, want >= 1.5x static %d", dynamic.Admitted, static.Admitted)
	}
	if dynamic.SteadyOutstanding() <= static.SteadyOutstanding() {
		t.Fatalf("dynamic outstanding %.1f <= static %.1f",
			dynamic.SteadyOutstanding(), static.SteadyOutstanding())
	}
	if dynamic.Admitted > full.Admitted {
		t.Fatalf("dynamic admitted %d exceeds the offline full ladder %d", dynamic.Admitted, full.Admitted)
	}
	out := FormatDynamic(points)
	if out == "" {
		t.Fatal("empty format")
	}
}
