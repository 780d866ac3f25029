package core

import (
	"errors"
	"fmt"

	"quasaq/internal/obs"
	"quasaq/internal/simtime"
)

// ErrAdmissionDeadline reports that an admission request expired in the
// queue (or was displaced from a full queue) before any plan was tried.
// Under overload it is the cheap outcome: the request never occupied a
// broker, burned no control-plane retries, and the client learns its fate
// by the deadline instead of after a futile RPC ladder.
var ErrAdmissionDeadline = errors.New("core: admission deadline exceeded before a decision")

// AdmissionQueueConfig tunes the deadline-aware admission queue. The zero
// value disables queueing (every ServiceAsync runs immediately — the legacy
// behaviour, byte-for-byte).
type AdmissionQueueConfig struct {
	// MaxInFlight bounds admissions allowed to run their plan pipeline
	// concurrently. Must be > 0 when the queue is enabled.
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot; when full, the oldest
	// waiter is displaced with ErrAdmissionDeadline (drop-oldest: the
	// newest request has the freshest deadline and the oldest has waited
	// closest to futility already).
	MaxQueue int
	// Deadline is the maximum queue wait before a request expires with
	// ErrAdmissionDeadline. Zero means waiters never expire by time.
	Deadline simtime.Time
}

// Enabled reports whether the config turns queueing on.
func (c AdmissionQueueConfig) Enabled() bool { return c != AdmissionQueueConfig{} }

// ConfigureAdmissionQueue installs (or, with the zero config, removes) the
// deadline-aware admission queue in front of the plan pipeline.
func (m *Manager) ConfigureAdmissionQueue(cfg AdmissionQueueConfig) error {
	if !cfg.Enabled() {
		m.aq = nil
		return nil
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.aq = newAdmissionQueue(m, cfg)
	return nil
}

// Validate rejects a queue without in-flight slots or with a negative
// bound.
func (c AdmissionQueueConfig) Validate() error {
	if c.MaxInFlight <= 0 {
		return fmt.Errorf("core: admission queue needs MaxInFlight > 0, got %d", c.MaxInFlight)
	}
	if c.MaxQueue < 0 || c.Deadline < 0 {
		return fmt.Errorf("core: negative admission queue parameter in %+v", c)
	}
	return nil
}

// aqItem is one queued admission: the pipeline thunk, the caller's
// completion, and the expiry timer. concluded latches once the item has
// reported its outcome — it is the single point deciding which of the
// racing conclusions (deadline expiry, drop-oldest displacement, pipeline
// completion) owns the item, so finish fires exactly once and the item
// lands in exactly one counter and one latency observation no matter how
// same-instant events interleave.
type aqItem struct {
	run       func(conclude func(*Delivery, error))
	finish    func(*Delivery, error)
	enq       simtime.Time
	timer     *simtime.Event
	concluded bool
}

// admissionQueue serializes admissions into at most MaxInFlight concurrent
// pipelines with a bounded, deadline-expiring wait line in front.
type admissionQueue struct {
	m        *Manager
	cfg      AdmissionQueueConfig
	inFlight int
	q        []*aqItem

	mExpired *obs.Counter
	mDropped *obs.Counter
	mDepth   *obs.Gauge
	mWait    *obs.Histogram
}

func newAdmissionQueue(m *Manager, cfg AdmissionQueueConfig) *admissionQueue {
	reg := m.cluster.Obs
	return &admissionQueue{
		m:        m,
		cfg:      cfg,
		mExpired: reg.Counter("quasaq_admq_expired_total"),
		mDropped: reg.Counter("quasaq_admq_dropped_total"),
		mDepth:   reg.Gauge("quasaq_admq_depth"),
		mWait:    reg.Histogram("quasaq_admq_wait_ms", []float64{1, 5, 10, 25, 50, 100, 250, 500, 1000}),
	}
}

// submit runs the admission immediately if a slot is free, otherwise queues
// it (displacing the oldest waiter when full) until a slot opens or the
// deadline expires.
func (aq *admissionQueue) submit(run func(func(*Delivery, error)), finish func(*Delivery, error)) {
	it := &aqItem{run: run, finish: finish, enq: aq.m.cluster.Sim.Now()}
	if aq.inFlight < aq.cfg.MaxInFlight {
		aq.start(it)
		return
	}
	if aq.cfg.MaxQueue == 0 {
		// No wait line at all: the request fails at arrival.
		aq.q = append(aq.q, it)
		aq.expel(it, aq.mDropped, "admission queue disabled and all slots busy")
		return
	}
	for len(aq.q) >= aq.cfg.MaxQueue {
		aq.expel(aq.q[0], aq.mDropped, "displaced from a full admission queue")
	}
	aq.q = append(aq.q, it)
	aq.mDepth.Set(int64(len(aq.q)))
	if aq.cfg.Deadline > 0 {
		it.timer = aq.m.cluster.Sim.Schedule(aq.cfg.Deadline, func() {
			it.timer = nil
			aq.expel(it, aq.mExpired, fmt.Sprintf("no admission slot within %v", aq.cfg.Deadline))
		})
	}
}

// expel removes a waiter and fails it with ErrAdmissionDeadline. An item
// that already concluded — expired while a displacement sweep reached it,
// or vice versa — is left untouched beyond the queue removal: whoever
// latched concluded already counted and finished it.
func (aq *admissionQueue) expel(it *aqItem, counter *obs.Counter, why string) {
	aq.remove(it)
	if it.concluded {
		return
	}
	it.concluded = true
	counter.Inc()
	waited := aq.m.cluster.Sim.Now() - it.enq
	it.finish(nil, fmt.Errorf("%w: %s after %v queued", ErrAdmissionDeadline, why, waited))
}

// remove takes the item out of the wait line (no-op if already gone) and
// cancels its expiry timer.
func (aq *admissionQueue) remove(it *aqItem) {
	for i, x := range aq.q {
		if x == it {
			aq.q = append(aq.q[:i], aq.q[i+1:]...)
			break
		}
	}
	if it.timer != nil {
		aq.m.cluster.Sim.Cancel(it.timer)
		it.timer = nil
	}
	aq.mDepth.Set(int64(len(aq.q)))
}

// start occupies a slot and runs the admission pipeline; the slot frees
// when the pipeline concludes, pulling the next waiter in FIFO order.
func (aq *admissionQueue) start(it *aqItem) {
	aq.inFlight++
	aq.mWait.Observe(1000 * simtime.ToSeconds(aq.m.cluster.Sim.Now()-it.enq))
	it.run(func(d *Delivery, err error) {
		if !it.concluded {
			it.concluded = true
			it.finish(d, err)
		}
		aq.release()
	})
}

// release frees a slot and dispatches queued waiters into any free slots.
func (aq *admissionQueue) release() {
	aq.inFlight--
	for aq.inFlight < aq.cfg.MaxInFlight && len(aq.q) > 0 {
		it := aq.q[0]
		aq.remove(it)
		aq.start(it)
	}
}
