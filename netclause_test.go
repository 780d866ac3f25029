package quasaq

import (
	"errors"
	"testing"
)

func TestDeliverNetClauseUnsatisfiable(t *testing.T) {
	db := openLoaded(t, Options{})
	req := Requirement{MinColorDepth: 8}.WithNet(
		NetThreshold{Metric: NetThroughput, Dir: NetAtLeast, Bound: 10_000_000},
	)
	_, err := db.Deliver("srv-a", 1, req)
	if !errors.Is(err, ErrRejected) || !errors.Is(err, ErrQoSUnsatisfiable) {
		t.Fatalf("want ErrQoSUnsatisfiable under ErrRejected, got %v", err)
	}
}

func TestQueryWithNetworkTermsInClause(t *testing.T) {
	db := openLoaded(t, Options{})
	qr, err := db.Query("srv-a",
		"SELECT * FROM videos WHERE title = 'cardiac-mri-patient-007' "+
			"WITH QOS (resolution >= VCD, resolution <= CIF, fps >= 20, "+
			"delay <= 1000, loss <= 0.9, throughput >= 1000)")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Delivery == nil {
		t.Fatal("loose network terms blocked delivery")
	}
	db.RunUntilIdle()
	if !qr.Delivery.Session.Done() {
		t.Fatal("delivery did not complete")
	}
}

func TestQoEQuerySurface(t *testing.T) {
	db := openLoaded(t, Options{Guardian: &GuardianConfig{}})
	recs, err := db.QoEQuery("SELECT * FROM qoe WHERE metric = 'loss'")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || db.QoECount() != 0 {
		t.Fatalf("healthy world has QoE history: %d rows", db.QoECount())
	}
	if _, err := db.QoEQuery("SELECT * FROM qoe WHERE nosuch = 1"); err == nil {
		t.Fatal("unknown qoe field accepted")
	}
	if _, err := db.QoEQuery("SELECT * FROM videos"); err == nil {
		t.Fatal("QoEQuery accepted a non-qoe table")
	}
}

func TestParseRequirementPublic(t *testing.T) {
	req, err := ParseRequirement("fps >= 20, delay <= 40, loss <= 0.05")
	if err != nil {
		t.Fatal(err)
	}
	if req.MinFrameRate != 20 || len(req.Net) != 2 {
		t.Fatalf("parsed = %+v", req)
	}
	if !req.Admits(NetQoS{DelayMillis: 30, Loss: 0.01}) {
		t.Fatal("conforming vector not admitted")
	}
	if req.Admits(NetQoS{DelayMillis: 60, Loss: 0.01}) {
		t.Fatal("breaching vector admitted")
	}
}
