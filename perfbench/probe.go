package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"quasaq/internal/core"
)

// probeEvery samples the plan probes: one arrival in probeEvery is probed,
// so the probes stay a small part of the traced run and of its profile.
const probeEvery = 16

// probePlans times the two plan-phase stages the quality manager runs on
// a cache miss, on the arrival's own key: cold enumeration, and LRB
// ranking against the cluster's current usage.
func (r *rep) probePlans(parent int32, i int, a *arrival) {
	if i%probeEvery != 0 {
		return
	}
	v, err := r.w.cluster.Engine.Video(a.video)
	if err != nil {
		return
	}
	e := r.tr.begin(spanEnum, parent, i)
	plans := r.w.mgr.Generator().GenerateAll(a.site, v, a.req)
	r.tr.end(e)
	k := r.tr.begin(spanRank, parent, i)
	core.LRB{}.Order(plans, r.w.cluster.SiteUsage())
	r.tr.end(k)
}

// frameSink keeps the FrameSize probe's results live.
var frameSink int

// frameSizeNs replays Variant.FrameSize over the frames the run streamed
// (up to a fixed budget) and returns host nanoseconds per call.
func frameSizeNs(fr []streamed) float64 {
	const budget = 2_000_000
	calls := 0
	t0 := time.Now()
	for _, s := range fr {
		n := min(s.frames, budget-calls)
		for f := 0; f < n; f++ {
			frameSink += s.va.FrameSize(s.v, f)
		}
		if calls += n; calls >= budget {
			break
		}
	}
	if calls == 0 {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// profPkgs are the program's layers the CPU profile is split into.
var profPkgs = []string{
	"simtime", "transport", "cpusched", "netsim", "media", "core", "broker",
	"gara", "guardian", "edgecache", "vdbms", "storage",
}

// profile is the per-function split of a CPU profile, as percentages of
// all samples.
type profile struct {
	flat, cum map[string]float64
}

// readProfile runs the installed `go tool pprof -top` over a CPU profile.
func readProfile(path string) (*profile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	p := &profile{flat: map[string]float64{}, cum: map[string]float64{}}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		p.flat[f[5]] += flat
		p.cum[f[5]] += cum
	}
	if len(p.flat) == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", path)
	}
	return p, nil
}

// pkgOf maps a profile function name to the package the metrics use:
// "simtime" for quasaq/internal/simtime, "perfbench" for this benchmark,
// the import path otherwise ("runtime", "container/heap").
func pkgOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "quasaq/internal/"); ok {
		return rest[:strings.IndexAny(rest+".", "./")]
	}
	if strings.HasPrefix(fn, "main.") {
		return "perfbench"
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profileMetrics reports each layer's self share, and the cumulative
// shares the performance notes quote: the event heap, allocation plus
// garbage collection, and FrameSize.
func profileMetrics(p *profile, put func(name, unit string, v float64)) {
	self := map[string]float64{}
	for fn, v := range p.flat {
		self[pkgOf(fn)] += v
	}
	for _, pkg := range profPkgs {
		put("prof."+pkg+".self_pct", "%", self[pkg])
	}
	put("prof.runtime.self_pct", "%", self["runtime"])
	put("prof.container_heap.self_pct", "%", self["container/heap"])
	put("prof.perfbench.self_pct", "%", self["perfbench"])
	put("prof.container_heap.cum_pct", "%", p.heapCum())
	put("prof.runtime_mallocgc.cum_pct", "%", p.cum[fnMalloc])
	put("prof.runtime_gc.cum_pct", "%", p.cum[fnGC])
	put("prof.media_framesize.cum_pct", "%", p.cum[fnFrameSize])
}

const (
	fnMalloc    = "runtime.mallocgc"
	fnGC        = "runtime.gcBgMarkWorker"
	fnFrameSize = "quasaq/internal/media.Variant.FrameSize"
)

// heapCum is the cumulative share of the event queue's container/heap
// calls; they do not call one another, so their shares add.
func (p *profile) heapCum() float64 {
	var heap float64
	for _, fn := range []string{"container/heap.Push", "container/heap.Pop", "container/heap.Remove", "container/heap.Fix", "container/heap.Init"} {
		heap += p.cum[fn]
	}
	return heap
}

// roadmapCheck compares the profile with the shares the roadmap quotes.
func roadmapCheck(p *profile) string {
	heap := p.heapCum()
	mgc := p.cum[fnMalloc] + p.cum[fnGC]
	fs := p.cum[fnFrameSize]
	in := func(v, lo, hi float64) string {
		if v >= lo && v <= hi {
			return "within"
		}
		return "outside"
	}
	return fmt.Sprintf("profile vs roadmap: container/heap %.1f%% (%s 15-25%%), malloc+GC %.1f%% (%s 20-25%%), FrameSize %.1f%% (%s 11-20%%)",
		heap, in(heap, 15, 25), mgc, in(mgc, 20, 25), fs, in(fs, 11, 20))
}
