package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Span names: the layer boundaries the benchmark crosses. A simtime slice
// contains arrival callbacks and hang-ups; an arrival contains the content
// phase, the edge-cache observation, the probes and the Service call.
const (
	spanSlice   = iota // simtime.Simulator.RunUntil over one slice
	spanArrival        // the benchmark's arrival callback
	spanSQL            // vdbms.Engine.ExecuteSQL
	spanObserve        // edgecache.Manager.Observe
	spanService        // core.Manager.Service / ServiceAsync
	spanCancel         // core.Delivery.Cancel (viewer hang-up)
	spanEnum           // probe: core.Generator.GenerateAll on the arrival's key
	spanRank           // probe: core.LRB.Order over the probe's plans
	numSpans
)

var spanNames = [numSpans]string{
	"simtime.RunUntil", "bench.arrival", "vdbms.ExecuteSQL", "edgecache.Observe",
	"core.Service", "core.Cancel", "probe.GenerateAll", "probe.LRB.Order",
}

// span is one timed call. Times are nanoseconds since the run started;
// req is the arrival index the call serves (-1 for slices).
type span struct {
	name       uint8
	parent     int32
	req        int32
	start, end int64
}

// tracer keeps spans in memory; they are written out after the run. All
// methods are no-ops on a nil tracer, which is how untraced runs call them.
type tracer struct {
	base    time.Time
	spans   []span
	cur     int32 // the open slice span, parent of callbacks the simulator runs
	stopped bool  // the timed run is over: record nothing more
}

func newTracer(arrivals int) *tracer {
	return &tracer{spans: make([]span, 0, 6*arrivals+4096), cur: -1}
}

func (t *tracer) start(base time.Time) {
	if t != nil {
		t.base = base
	}
}

// enter makes the slice span id the parent of the callbacks it runs.
func (t *tracer) enter(id int32) {
	if t != nil {
		t.cur = id
	}
}

func (t *tracer) current() int32 {
	if t == nil {
		return -1
	}
	return t.cur
}

// stop ends recording at the end of the timed run.
func (t *tracer) stop() {
	if t != nil {
		t.stopped = true
	}
}

func (t *tracer) begin(name uint8, parent int32, req int) int32 {
	if t == nil || t.stopped {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, req: int32(req), start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = int64(time.Since(t.base))
	}
}

// dur is a closed span's duration in microseconds.
func (t *tracer) dur(id int32) float64 {
	s := &t.spans[id]
	return float64(s.end-s.start) / 1e3
}

// layerTimes sums, per span name, the total and the self time (duration
// minus the children's durations), and collects each name's durations.
type layerTimes struct {
	total, self [numSpans]time.Duration
	durUs       [numSpans][]float64
}

func (t *tracer) layers() *layerTimes {
	lt := &layerTimes{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		lt.total[s.name] += time.Duration(d)
		lt.self[s.name] += time.Duration(d - child[i])
		lt.durUs[s.name] = append(lt.durUs[s.name], float64(d)/1e3)
	}
	return lt
}

// write saves the spans as CSV: id, parent, request, name, start and end
// in nanoseconds since the run started.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.parent, s.req, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
