package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"quasaq/internal/core"
	"quasaq/internal/edgecache"
	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

// usageTolerance is how far from zero, as a share of capacity, a site's
// usage may end: the buckets add and subtract float demands, so a drained
// site keeps rounding residue (a few 1e-15 of capacity in these
// workloads), which no leftover lease comes near.
const usageTolerance = 1e-9

// slice is the virtual-time step between two RunUntil calls: the points at
// which the benchmark samples the heap and the pending-event queue.
const slice = simtime.Time(time.Second)

// life follows one arrival from its query to the end of its delivery.
type life struct {
	settled   uint8 // admission outcomes received
	concluded uint8 // delivery endings received (done, failed or hung up)
	admitted  bool
	bad       bool       // an output check failed for this arrival
	plan      *core.Plan // the admitted plan, for the behaviour digest
	d         *core.Delivery
}

// streamed is one delivery's frames, replayed by the FrameSize probe.
type streamed struct {
	v      *media.Video
	va     media.Variant
	frames int
}

// rep is one run of a workload: a fresh world driven over the seed's
// inputs until the simulator drains, then checked.
type rep struct {
	in    inputs // dropped, with w and lives, once the rep is over
	w     *world
	tr    *tracer // nil on untraced runs
	lives []life

	arrivals int
	snap     snapshot

	host      time.Duration // the timed run: the arrival window
	vsec      float64       // virtual seconds simulated in the timed run
	qlat      []float64     // host µs per arrival: content phase + Service
	decideVms []float64     // virtual ms from arrival to admission decision
	mallocs   uint64
	allocB    uint64
	gcCycles  uint64
	gcCPU     float64 // seconds of GC CPU time in the timed run
	allCPU    float64 // seconds of all CPU time in the timed run
	peakHeap  uint64  // highest live heap sampled between slices, bytes
	pendPeak  int
	winEvents uint64 // events executed in the timed run
	events    uint64 // events executed in the whole run, drain included

	admitted, rejected, completed, lost, hungUp, qosOK int

	// failed counts failed checks: one per arrival that failed one, one per
	// failed run-wide check.
	failed int

	// usageResidue is the largest |usage|/capacity on any site and axis
	// after the drain: the rounding the float resource buckets leave.
	usageResidue float64

	problems []string // failed run-wide checks
	digest   uint64

	// Traced runs only.
	hitUs, missUs []float64
	frames        []streamed
	qoeRows       int
	qoeScan       time.Duration
}

// runRep builds the workload's world from the seed's inputs, drives it to
// completion and checks its outputs.
func runRep(def workloadDef, seed int64, traced bool) (*rep, error) {
	in := def.inputs(seed)
	runtime.GC()
	w, err := def.setup(seed, in)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	r := &rep{in: in, w: w, lives: make([]life, len(in.arrivals))}
	r.qlat = make([]float64, 0, len(in.arrivals))
	r.decideVms = make([]float64, 0, len(in.arrivals))
	if traced {
		r.tr = newTracer(len(in.arrivals))
	}
	r.drive()
	r.check()
	r.digest = r.behaviourDigest()
	r.keep()
	return r, nil
}

// layerCounters are the registry series the per-layer metrics read.
var layerCounters = []string{
	"transport_frames_sent_total", "transport_frames_shed_total", "transport_bytes_sent_total",
	"cpusched_dispatches_total", "cpusched_preemptions_total",
	"gara_leases_granted_total", "gara_leases_revoked_total", "gara_leases_live",
	"quasaq_ctrl_msgs_total", "quasaq_ctrl_prepares_total", "quasaq_ctrl_timeouts_total",
	"quasaq_ctrl_breaker_fastfails_total",
	"quasaq_guardian_windows_total", "quasaq_guardian_violations_total", "quasaq_guardian_rung_total",
}

// snapshot is what a rep keeps of its world's counters.
type snapshot struct {
	counters map[string]uint64
	mgr      core.ManagerStats
	cache    core.PlanCacheStats
	edge     edgecache.Stats // zero without an edge tier
}

// keep snapshots the world's counters and drops the world, so that reps
// kept for the run's figures do not hold earlier worlds' heaps alive
// under later reps.
func (r *rep) keep() {
	c := r.w.cluster
	r.snap = snapshot{counters: map[string]uint64{}, mgr: r.w.mgr.Stats(), cache: r.w.mgr.PlanCache().Stats()}
	for _, name := range layerCounters {
		r.snap.counters[name] = counter(c, name)
	}
	if r.w.edge != nil {
		r.snap.edge = r.w.edge.Stats()
	}
	r.arrivals = len(r.in.arrivals)
	r.w, r.in, r.lives = nil, inputs{}, nil
}

// heapProbe reads the live heap the last garbage collection marked,
// through runtime/metrics, which needs no stop-the-world pause. HeapInuse
// would also count the garbage allocated since, which swings with GC
// pacing from one run to the next.
type heapProbe struct{ s []metrics.Sample }

func newHeapProbe() *heapProbe {
	return &heapProbe{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapProbe) read() uint64 {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64()
}

func gcCPU() (gc, all float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// drive runs the open-loop arrivals on the virtual clock in one-second
// RunUntil slices. The timed run is the arrival window; the drain after
// it is untimed.
func (r *rep) drive() {
	sim := r.w.sim
	if len(r.in.arrivals) > 0 {
		sim.ScheduleAt(r.in.arrivals[0].at, func() { r.arrive(0) })
	}
	hp := newHeapProbe()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, all0 := gcCPU()
	ev0 := sim.Executed()
	start := time.Now()
	r.tr.start(start)
	var last simtime.Time
	if n := len(r.in.arrivals); n > 0 {
		last = r.in.arrivals[n-1].at
	}
	for sim.Now() <= last {
		r.step(hp)
	}
	r.host = time.Since(start)
	gc1, all1 := gcCPU()
	runtime.ReadMemStats(&m1)
	r.vsec = simtime.ToSeconds(sim.Now())
	r.winEvents = sim.Executed() - ev0
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocB = m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles = uint64(m1.NumGC - m0.NumGC)
	r.gcCPU, r.allCPU = gc1-gc0, all1-all0
	// Drain, untimed: the sessions admitted near the end of the window
	// stream on, and their length depends on which videos the seed drew.
	r.tr.stop()
	for sim.Pending() > 0 {
		r.step(hp)
	}
	r.events = sim.Executed() - ev0
}

// step runs one RunUntil slice and samples the heap and the event queue.
func (r *rep) step(hp *heapProbe) {
	sim := r.w.sim
	if p := sim.Pending(); p > r.pendPeak {
		r.pendPeak = p
	}
	sp := r.tr.begin(spanSlice, -1, -1)
	r.tr.enter(sp)
	sim.RunUntil(sim.Now() + slice)
	r.tr.end(sp)
	if h := hp.read(); h > r.peakHeap {
		r.peakHeap = h
	}
}

// arrive serves arrival i at its instant and chains the next one, so the
// generator stays one event ahead of the clock.
func (r *rep) arrive(i int) {
	a := &r.in.arrivals[i]
	if i+1 < len(r.in.arrivals) {
		r.w.sim.ScheduleAt(r.in.arrivals[i+1].at, func() { r.arrive(i + 1) })
	}
	sp := r.tr.begin(spanArrival, r.tr.current(), i)
	if r.w.edge != nil {
		o := r.tr.begin(spanObserve, sp, i)
		r.w.edge.Observe(a.site, a.video)
		r.tr.end(o)
	}
	if r.tr != nil {
		r.probePlans(sp, i, a)
	}
	opts := core.ServiceOptions{
		OnDone:   func(d *core.Delivery) { r.conclude(i, d, false) },
		OnFailed: func(d *core.Delivery, _ error) { r.conclude(i, d, true) },
	}
	hits, misses := r.cacheCounts()
	t0 := time.Now()
	id := a.video
	if a.sql != "" {
		id = r.content(sp, i, a)
	}
	svc := r.tr.begin(spanService, sp, i)
	if r.w.async {
		r.w.mgr.ServiceAsync(a.site, id, a.req, opts, func(d *core.Delivery, err error) { r.settle(i, d, err) })
		r.qlat = append(r.qlat, micros(time.Since(t0)))
		r.tr.end(svc)
	} else {
		d, err := r.w.mgr.Service(a.site, id, a.req, opts)
		r.qlat = append(r.qlat, micros(time.Since(t0)))
		r.tr.end(svc)
		r.settle(i, d, err)
	}
	if r.tr != nil {
		h, m := r.cacheCounts()
		switch us := r.tr.dur(svc); {
		case h > hits:
			r.hitUs = append(r.hitUs, us)
		case m > misses:
			r.missUs = append(r.missUs, us)
		}
	}
	r.tr.end(sp)
}

func (r *rep) cacheCounts() (hits, misses uint64) {
	if r.tr == nil {
		return 0, 0
	}
	st := r.w.mgr.PlanCache().Stats()
	return st.Hits, st.Misses
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// content runs the query's content phase and checks that it resolves to
// exactly the video the query names.
func (r *rep) content(parent int32, i int, a *arrival) media.VideoID {
	sp := r.tr.begin(spanSQL, parent, i)
	res, _, err := r.w.cluster.Engine.ExecuteSQL(a.sql)
	r.tr.end(sp)
	switch {
	case err != nil:
		r.bad(i, fmt.Sprintf("content phase %q: %v", a.sql, err))
	case len(res) != 1 || res[0].Video.ID != a.video:
		r.bad(i, fmt.Sprintf("content phase %q: %d results, want only %s", a.sql, len(res), a.video))
	default:
		return res[0].Video.ID
	}
	return a.video
}

// expectedReject reports whether err is one of the admission refusals the
// quality manager documents, as opposed to a malfunction.
func expectedReject(err error) bool {
	return errors.Is(err, core.ErrRejected) || errors.Is(err, core.ErrNoViablePlan) ||
		errors.Is(err, core.ErrNoPlan) || errors.Is(err, core.ErrAdmissionDeadline)
}

func (r *rep) settle(i int, d *core.Delivery, err error) {
	a := &r.in.arrivals[i]
	l := &r.lives[i]
	l.settled++
	r.decideVms = append(r.decideVms, 1000*simtime.ToSeconds(r.w.sim.Now()-a.at))
	if err != nil {
		r.rejected++
		if !expectedReject(err) {
			r.bad(i, fmt.Sprintf("admission error outside the refusal taxonomy: %v", err))
		}
		return
	}
	r.admitted++
	l.admitted, l.plan, l.d = true, d.Plan, d
	if a.hold > 0 {
		r.w.sim.Schedule(a.hold, func() { r.hangUp(i) })
	}
}

// hangUp is the viewer leaving before the video ends.
func (r *rep) hangUp(i int) {
	l := &r.lives[i]
	if l.concluded > 0 {
		return
	}
	d := l.d
	sp := r.tr.begin(spanCancel, r.tr.current(), i)
	ok := d.Session.QoSOK()
	d.Cancel()
	r.tr.end(sp)
	l.concluded++
	l.d = nil
	r.hungUp++
	if ok {
		r.qosOK++
	}
	r.noteFrames(d)
}

func (r *rep) conclude(i int, d *core.Delivery, failed bool) {
	r.lives[i].concluded++
	r.lives[i].d = nil
	if failed {
		r.lost++
	} else {
		r.completed++
		if d.Session.QoSOK() {
			r.qosOK++
		}
	}
	r.noteFrames(d)
}

func (r *rep) noteFrames(d *core.Delivery) {
	if r.tr != nil && d.Session != nil {
		r.frames = append(r.frames, streamed{d.Video(), d.Plan.DeliveredVariant, d.Session.FramesDelivered()})
	}
}

// bad fails arrival i's checks; the first few reasons are kept.
func (r *rep) bad(i int, why string) {
	if !r.lives[i].bad {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf("arrival %d: %s", i, why))
		}
	}
	r.lives[i].bad = true
}

// problem fails a run-wide check.
func (r *rep) problem(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check runs the conservation checks once the simulator has drained.
func (r *rep) check() {
	for i := range r.lives {
		l := &r.lives[i]
		switch {
		case l.settled != 1:
			r.bad(i, fmt.Sprintf("settled %d times", l.settled))
		case l.admitted && l.concluded != 1:
			r.bad(i, fmt.Sprintf("admitted delivery concluded %d times", l.concluded))
		case !l.admitted && l.concluded != 0:
			r.bad(i, "rejected query concluded a delivery")
		}
	}
	c := r.w.cluster
	if n := c.OutstandingSessions(); n != 0 {
		r.problem("%d sessions outstanding after the drain", n)
	}
	for _, m := range c.Obs.Snapshot() {
		if (m.Name == "gara_leases_live" || m.Name == "gara_leases_prepared_live") && m.Value != 0 {
			r.problem("%s{site=%s} = %v after the drain", m.Name, m.Labels["site"], m.Value)
		}
	}
	sites := make([]string, 0, len(c.Nodes))
	for s := range c.Nodes {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	for _, s := range sites {
		u, capacity, err := c.Usage(s)
		if err != nil {
			r.problem("site %s usage: %v", s, err)
			continue
		}
		for k, x := range u {
			res := math.Abs(x) / capacity[k]
			r.usageResidue = max(r.usageResidue, res)
			if res > usageTolerance {
				r.problem("site %s %s usage %g of capacity %g after the drain", s, qos.ResourceKind(k), x, capacity[k])
			}
		}
	}
	// The guardian re-plans through the manager too, so only a world
	// without it sees exactly the benchmark's queries.
	if ms := r.w.mgr.Stats(); r.w.guard == nil && (ms.Queries != uint64(len(r.in.arrivals)) || ms.Admitted != uint64(r.admitted)) {
		r.problem("manager counted %d queries, %d admitted; benchmark sent %d, saw %d admitted",
			ms.Queries, ms.Admitted, len(r.in.arrivals), r.admitted)
	}
	if r.w.guard != nil {
		t0 := time.Now()
		rows, _, err := c.Engine.QoESQL("SELECT * FROM qoe")
		r.qoeScan = time.Since(t0)
		r.qoeRows = len(rows)
		want := counter(c, "quasaq_guardian_qoe_records_total")
		if err != nil || uint64(len(rows)) != want {
			r.problem("qoe table read back %d rows (err %v), guardian recorded %d", len(rows), err, want)
		}
	}
}

// counter sums a registry series over every label set.
func counter(c *core.Cluster, name string) uint64 {
	var n float64
	for _, m := range c.Obs.Snapshot() {
		if m.Name == name {
			n += m.Value
		}
	}
	return uint64(n)
}

// behaviourDigest hashes every admission decision, in arrival order, and
// the run's final simulated counters. It depends on the seed alone.
func (r *rep) behaviourDigest() uint64 {
	h := fnv.New64a()
	for i, l := range r.lives {
		if !l.admitted {
			fmt.Fprintf(h, "%d reject\n", i)
			continue
		}
		p := l.plan
		fmt.Fprintf(h, "%d admit %s %s %s %d\n", i, p.DeliverySite, p.Replica.ID(), p.DeliveredVariant.Quality, p.SplitFrame)
	}
	c := r.w.cluster
	fmt.Fprintf(h, "%+v\n", r.w.mgr.Stats())
	if r.w.guard != nil {
		fmt.Fprintf(h, "%+v\n", r.w.guard.Stats())
	}
	if r.w.edge != nil {
		fmt.Fprintf(h, "%+v\n", r.w.edge.Stats())
	}
	for _, name := range []string{
		"transport_frames_sent_total", "transport_bytes_sent_total", "transport_frames_shed_total",
		"gara_leases_granted_total", "gara_leases_revoked_total", "quasaq_ctrl_msgs_total",
		"quasaq_guardian_qoe_records_total",
	} {
		fmt.Fprintf(h, "%s %d\n", name, counter(c, name))
	}
	fmt.Fprintf(h, "completed %d failed %d hung-up %d qos-ok %d end %v\n",
		r.completed, r.lost, r.hungUp, r.qosOK, r.w.sim.Now())
	return h.Sum64()
}
