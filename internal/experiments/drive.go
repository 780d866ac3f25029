package experiments

import (
	"fmt"

	"quasaq/internal/core"
	"quasaq/internal/deploy"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
	"quasaq/internal/workload"
)

// Tally counts a drained run's queries and sessions: every admission
// settles as admitted or rejected, and every admitted session concludes as
// completed (QoSOK of them within their QoS) or failed — lost to faults or
// shed by the guardian.
type Tally struct {
	Queries   int
	Admitted  int
	Rejected  int
	Completed int
	QoSOK     int
	Failed    int
}

// serveHooks let an experiment count more than the tally. arrive may
// rewrite a request before it is served; verdict (with the time from
// arrival to decision), done and failed see each outcome after the tally
// has counted it.
type serveHooks struct {
	arrive  func(workload.Request) qos.Requirement
	verdict func(d *core.Delivery, err error, wait simtime.Time)
	done    func(*core.Delivery)
	failed  func(error)
}

// serveAll offers every arrival gen draws over horizon to the world's
// manager asynchronously (after the world has observed its demand) and
// tallies the outcomes, then drains the world completely — arrivals,
// faults, recoveries, guardian windows, farm jobs and streams are all
// finite, so the event queue empties — and checks that every admission
// settled and every session concluded.
func (t *Tally) serveAll(name string, w *deploy.World, gen *workload.Generator, horizon simtime.Time, h serveHooks) error {
	sim := w.Sim
	gen.Drive(sim, horizon, func(r workload.Request) {
		t.Queries++
		arrived := sim.Now()
		req := r.Req
		if h.arrive != nil {
			req = h.arrive(r)
		}
		w.Observe(r.Site, r.Video, req)
		w.Manager.ServiceAsync(r.Site, r.Video, req, core.ServiceOptions{
			OnDone: func(d *core.Delivery) {
				t.Completed++
				if d.Session.QoSOK() {
					t.QoSOK++
				}
				if h.done != nil {
					h.done(d)
				}
			},
			OnFailed: func(_ *core.Delivery, err error) {
				t.Failed++
				if h.failed != nil {
					h.failed(err)
				}
			},
		}, func(d *core.Delivery, err error) {
			if err != nil {
				t.Rejected++
			} else {
				t.Admitted++
			}
			if h.verdict != nil {
				h.verdict(d, err, sim.Now()-arrived)
			}
		})
	})
	sim.Run()
	if got := t.Admitted + t.Rejected; got != t.Queries {
		return fmt.Errorf("experiments: %d of %d %s admissions never settled", t.Queries-got, t.Queries, name)
	}
	if got := t.Completed + t.Failed; got != t.Admitted {
		return fmt.Errorf("experiments: %d of %d %s sessions never concluded", t.Admitted-got, t.Admitted, name)
	}
	return nil
}
