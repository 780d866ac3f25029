package core

import (
	"errors"
	"testing"

	"quasaq/internal/gara"
	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/simtime"
	"quasaq/internal/transcode"
)

// A plan's auxiliary stage leases — a remote plan's source relay, an
// offloaded plan's farm transcode — feed the stream without carrying it.
// Revoking one mid-stream must fail the session over like a delivery-site
// fault: recovery re-plans from the playback position, the delivery
// finishes once, and every lease comes back.

// singleCopyManager is a failover-enabled manager over single-copy
// storage: every video lives on one site, and every lower tier transcodes.
func singleCopyManager(t *testing.T) (*simtime.Simulator, *Cluster, *Manager) {
	t.Helper()
	sim := simtime.NewSimulator()
	c := TestbedCluster(sim)
	if _, err := c.LoadCorpus(media.StandardCorpus(42), replication.SingleCopyPolicy()); err != nil {
		t.Fatal(err)
	}
	return sim, c, failoverManager(c)
}

// admitWhere services videos from srv-a in catalog order until the manager
// admits one whose plan satisfies want, and returns that delivery.
func admitWhere(t *testing.T, m *Manager, c *Cluster, opts ServiceOptions, want func(*Plan) bool) *Delivery {
	t.Helper()
	for id := media.VideoID(1); ; id++ {
		if _, err := c.Engine.Video(id); err != nil {
			t.Fatal("no admitted plan has the wanted stage")
		}
		d, err := m.Service("srv-a", id, vcdRequirement(), opts)
		if err != nil {
			continue
		}
		if want(d.Plan) {
			return d
		}
		d.Cancel()
	}
}

// stageLease returns the lease in the delivery's table for its plan's
// reservation stage of the given kind (nil when the slot is empty).
func stageLease(d *Delivery, kind StageKind) *gara.Lease {
	for i, st := range d.Plan.ReservationStages() {
		if st.Kind == kind {
			return d.leases[i]
		}
	}
	return nil
}

// revokeMidStream revokes the delivery's stage lease (read when the fault
// fires) five seconds in and drains the world.
func revokeMidStream(t *testing.T, sim *simtime.Simulator, lease func() *gara.Lease) {
	t.Helper()
	sim.ScheduleAt(sim.Now()+simtime.Seconds(5), func() {
		l := lease()
		if l == nil {
			t.Error("stage lease not held mid-stream")
			return
		}
		l.Revoke(errors.New("stage lost"))
	})
	sim.Run()
}

// assertFailedOver checks the delivery recovered once and returned every
// resource.
func assertFailedOver(t *testing.T, m *Manager, c *Cluster, d, done *Delivery) {
	t.Helper()
	if done != d {
		t.Fatal("delivery did not complete after the stage lease was revoked")
	}
	if d.Failovers() != 1 || d.Failed() || d.Recovering() {
		t.Fatalf("failovers=%d failed=%v recovering=%v", d.Failovers(), d.Failed(), d.Recovering())
	}
	if st := m.Stats(); st.SessionFailures != 1 || st.Failovers != 1 {
		t.Fatalf("stats = %+v", st)
	}
	for i, l := range d.leases {
		if l != nil {
			t.Fatalf("lease table slot %d still held after teardown", i)
		}
	}
	if c.OutstandingSessions() != 0 {
		t.Fatal("sessions leaked")
	}
	for site := range c.Nodes {
		if u, _, err := c.Usage(site); err != nil || u != (qos.ResourceVector{}) {
			t.Fatalf("site %s still holds %v (err %v)", site, u, err)
		}
	}
}

func TestSourceLeaseRevocationFailsOver(t *testing.T) {
	sim, c, m := singleCopyManager(t)
	var done *Delivery
	// Keeping delivery off srv-a makes srv-a's titles relay from it.
	d := admitWhere(t, m, c, ServiceOptions{OnDone: func(x *Delivery) { done = x }, AvoidSites: []string{"srv-a"}},
		(*Plan).Remote)
	if stageLease(d, StageSource) == nil {
		t.Fatalf("remote plan %s admitted without a source lease", d.Plan)
	}
	revokeMidStream(t, sim, func() *gara.Lease { return stageLease(d, StageSource) })
	assertFailedOver(t, m, c, d, done)
}

func TestFarmLeaseRevocationFailsOver(t *testing.T) {
	sim, c, m := singleCopyManager(t)
	if _, err := m.EnableFarm(transcode.FarmConfig{Classes: []transcode.WorkerClass{
		{Name: "w", Speed: 4, MinWorkers: 2, MaxWorkers: 4},
	}}); err != nil {
		t.Fatal(err)
	}
	var done *Delivery
	d := admitWhere(t, m, c, ServiceOptions{OnDone: func(x *Delivery) { done = x }}, (*Plan).FarmOffloaded)
	if stageLease(d, StageTranscode) == nil {
		t.Fatalf("offloaded plan %s admitted without a farm lease", d.Plan)
	}
	revokeMidStream(t, sim, func() *gara.Lease { return stageLease(d, StageTranscode) })
	assertFailedOver(t, m, c, d, done)
}
