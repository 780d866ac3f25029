package main

import (
	"time"

	"quasaq/internal/core"
	"quasaq/internal/edgecache"
)

// layerMetrics reports the per-layer numbers of a traced run. Counts sum
// one round (every instance once; later rounds repeat them exactly); host
// times are per-round means over every traced round; latencies pool every
// traced rep. plain are untraced reps of instance 0, the reference for
// the tracing overhead against traced[0], the same instance traced.
func layerMetrics(put func(name, unit string, v float64), plain, traced, round []*rep) {
	rounds := float64(len(traced) / len(round))
	var lt layerTimes
	var host time.Duration
	var hitUs, missUs []float64
	var gcCPU, allCPU, mallocs, allocB, winEvents float64
	for _, t := range traced {
		l := t.tr.layers()
		for k := range lt.total {
			lt.total[k] += l.total[k]
			lt.self[k] += l.self[k]
			lt.durUs[k] = append(lt.durUs[k], l.durUs[k]...)
		}
		host += t.host
		hitUs = append(hitUs, t.hitUs...)
		missUs = append(missUs, t.missUs...)
		gcCPU += t.gcCPU
		allCPU += t.allCPU
		mallocs += float64(t.mallocs)
		allocB += float64(t.allocB)
		winEvents += float64(t.winEvents)
	}
	perRoundMs := func(d time.Duration) float64 { return d.Seconds() * 1000 / rounds }

	// sum adds one number over the round's reps.
	sum := func(f func(r *rep) float64) float64 {
		var s float64
		for _, r := range round {
			s += f(r)
		}
		return s
	}
	reg := func(name string) float64 {
		return sum(func(r *rep) float64 { return float64(r.snap.counters[name]) })
	}
	var ms core.ManagerStats
	var pc core.PlanCacheStats
	var es edgecache.Stats
	var fr []streamed
	for _, r := range round {
		ms.Merge(r.snap.mgr)
		pc.Hits += r.snap.cache.Hits
		pc.Misses += r.snap.cache.Misses
		pc.Invalidations += r.snap.cache.Invalidations
		e := r.snap.edge
		es.Hits += e.Hits
		es.Misses += e.Misses
		es.Installs += e.Installs
		es.Evictions += e.Evictions
		es.Promotions += e.Promotions
		fr = append(fr, r.frames...)
	}
	arrivals := sum(func(r *rep) float64 { return float64(r.arrivals) })
	events := sum(func(r *rep) float64 { return float64(r.events) })

	put("simtime.events", "count", events)
	put("simtime.events_per_s", "1/s", winEvents/host.Seconds())
	put("simtime.pending_peak", "count", sum(func(r *rep) float64 { return float64(r.pendPeak) })/float64(len(round)))
	put("simtime.self_ms", "ms", perRoundMs(lt.self[spanSlice]))

	frames := reg("transport_frames_sent_total")
	put("transport.frames_sent", "count", frames)
	put("transport.frames_shed", "count", reg("transport_frames_shed_total"))
	put("transport.bytes_sent", "B", reg("transport_bytes_sent_total"))
	put("transport.handovers", "count", float64(ms.Handovers))
	put("transport.events_per_frame", "count", div(events, frames))

	put("media.frame_size_ns", "ns", frameSizeNs(fr))

	put("cpusched.dispatches", "count", reg("cpusched_dispatches_total"))
	put("cpusched.preemptions", "count", reg("cpusched_preemptions_total"))

	probes := lt.total[spanEnum] + lt.total[spanRank]
	put("core.service_calls", "count", arrivals)
	put("core.service_self_ms", "ms", perRoundMs(lt.self[spanService]))
	put("core.service_pct", "%", 100*lt.total[spanService].Seconds()/(host-probes).Seconds())
	put("core.service_hit_us_p50", "us", quantile(hitUs, 0.5))
	put("core.service_miss_us_p50", "us", quantile(missUs, 0.5))
	put("core.plancache.hit_ratio", "ratio", div(float64(pc.Hits), float64(pc.Hits+pc.Misses)))
	put("core.plancache.invalidations", "count", float64(pc.Invalidations))
	put("core.plans_generated", "count", float64(ms.PlansGenerated))
	put("core.plans_tried", "count", float64(ms.PlansTried))
	put("core.tried_per_admit", "ratio", div(float64(ms.PlansTried), float64(ms.Admitted)))
	put("core.enumerate_us", "us", quantile(lt.durUs[spanEnum], 0.5))
	put("core.rank_us", "us", quantile(lt.durUs[spanRank], 0.5))

	put("gara.leases_granted", "count", reg("gara_leases_granted_total"))
	put("gara.leases_revoked", "count", reg("gara_leases_revoked_total"))
	put("gara.leases_live_end", "count", reg("gara_leases_live"))
	var residue float64
	for _, r := range round {
		residue = max(residue, r.usageResidue)
	}
	put("gara.usage_residue", "ratio", residue)

	put("broker.ctrl_msgs", "count", reg("quasaq_ctrl_msgs_total"))
	put("broker.prepares_per_query", "ratio", div(reg("quasaq_ctrl_prepares_total"), arrivals))
	put("broker.timeouts", "count", reg("quasaq_ctrl_timeouts_total"))
	put("broker.breaker_fastfails", "count", reg("quasaq_ctrl_breaker_fastfails_total"))

	put("vdbms.sql_us_p50", "us", quantile(lt.durUs[spanSQL], 0.5))
	put("vdbms.qoe_rows", "count", sum(func(r *rep) float64 { return float64(r.qoeRows) }))
	put("vdbms.qoe_scan_ms", "ms", sum(func(r *rep) float64 { return r.qoeScan.Seconds() * 1000 }))

	put("guardian.windows", "count", reg("quasaq_guardian_windows_total"))
	put("guardian.violations", "count", reg("quasaq_guardian_violations_total"))
	put("guardian.rung_actions", "count", reg("quasaq_guardian_rung_total"))

	put("edge.observe_us", "us", quantile(lt.durUs[spanObserve], 0.5))
	put("edge.hit_ratio", "ratio", div(float64(es.Hits), float64(es.Hits+es.Misses)))
	put("edge.installs", "count", float64(es.Installs))
	put("edge.evictions", "count", float64(es.Evictions))
	put("edge.promotions", "count", float64(es.Promotions))

	put("go.allocs_per_event", "count", div(mallocs, winEvents))
	put("go.bytes_per_event", "B", div(allocB, winEvents))
	put("go.gc_cycles", "count", sum(func(r *rep) float64 { return float64(r.gcCycles) }))
	put("go.gc_cpu_pct", "%", 100*gcCPU/allCPU)

	admitted := sum(func(r *rep) float64 { return float64(r.admitted) })
	var decide []float64
	for _, r := range round {
		decide = append(decide, r.decideVms...)
	}
	put("sim.session_fail_rate", "ratio", div(sum(func(r *rep) float64 { return float64(r.lost) }), admitted))
	put("sim.decide_p99_vms", "vms", quantile(decide, 0.99))

	// The probes are extra work, not tracing cost: leave them out.
	t := traced[0]
	tl := t.tr.layers()
	tracedRate := t.vsec / (t.host - tl.total[spanEnum] - tl.total[spanRank]).Seconds()
	var plainVsec, plainHost float64
	for _, p := range plain {
		plainVsec += p.vsec
		plainHost += p.host.Seconds()
	}
	plainRate := plainVsec / plainHost
	put("trace.overhead_pct", "%", 100*(plainRate-tracedRate)/plainRate)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
