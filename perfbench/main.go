// Command perfbench is the repository's host-time benchmark. It builds one
// workload's worlds from a seed, drives each single-threaded through
// core.Manager on the virtual clock, checks the outputs, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload overload --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around every call into the program, writes them and a CPU
// profile under --out, and prints the per-layer metrics. README.md in this
// directory maps each metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"quasaq/internal/simtime"
)

// setups is the number of world builds one run times for setup_s, their
// median.
const setups = 31

func main() {
	name := flag.String("workload", "", "workload: overload, edge-flash or admit-churn")
	seed := flag.Int64("seed", 1, "input seed; every input is generated from it")
	seconds := flag.Float64("seconds", 15, "host seconds to measure for, at least one round")
	trace := flag.Int("trace", 0, "1 records spans and a CPU profile and prints per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span and profile files")
	flag.Parse()
	def, err := findWorkload(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	res := &result{def: def, seed: *seed, metrics: map[string]metric{}}
	if *trace == 0 {
		err = res.measure(budget)
	} else {
		err = res.traceRun(budget, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Println("check failed:", p)
	}
	line, err := json.Marshal(res.out())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the reps it made and the metrics it
// reports. A round is one rep of each of the workload's instances.
type result struct {
	def      workloadDef
	seed     int64
	reps     []*rep
	digests  []uint64 // per instance, from its first rep
	failed   int      // digest mismatches; the reps count their own failures
	setups   []float64
	metrics  map[string]metric
	problems []string
}

// instanceSeed is the seed of the workload's k-th instance in a run.
func (res *result) instanceSeed(k int) int64 {
	return simtime.DeriveSeed(res.seed, fmt.Sprintf("instance-%d", k))
}

func (res *result) put(name, unit string, v float64) {
	res.metrics[name] = metric{v, unit}
}

func (res *result) correct() bool { return len(res.problems) == 0 }

func (res *result) out() any {
	attempted, failed := 0, res.failed
	for _, r := range res.reps {
		attempted += r.arrivals
		failed += r.failed
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), attempted, failed, res.metrics}
}

// rep runs instance k once and records its problems and, against the
// instance's first rep, its behaviour digest.
func (res *result) rep(k int, traced bool) (*rep, error) {
	r, err := runRep(res.def, res.instanceSeed(k), traced)
	if err != nil {
		return nil, err
	}
	n := len(res.reps)
	res.reps = append(res.reps, r)
	for _, p := range r.problems {
		res.problems = append(res.problems, fmt.Sprintf("rep %d: %s", n, p))
	}
	switch {
	case k == len(res.digests):
		res.digests = append(res.digests, r.digest)
	case r.digest != res.digests[k]:
		res.failed++
		res.problems = append(res.problems, fmt.Sprintf("rep %d: instance %d behaviour digest %016x, earlier %016x",
			n, k, r.digest, res.digests[k]))
	}
	return r, nil
}

// rounds runs whole rounds until the budget is spent (at least one) and
// returns the reps they made.
func (res *result) rounds(budget time.Duration, traced bool) ([]*rep, error) {
	start := time.Now()
	first := len(res.reps)
	for len(res.reps) == first || time.Since(start) < budget {
		for k := 0; k < res.def.instances; k++ {
			if _, err := res.rep(k, traced); err != nil {
				return nil, err
			}
		}
	}
	return res.reps[first:], nil
}

// timeSetups builds and drops worlds, cycling through the instances, and
// times each build.
func (res *result) timeSetups() error {
	for len(res.setups) < setups {
		seed := res.instanceSeed(len(res.setups) % res.def.instances)
		in := res.def.inputs(seed)
		t0 := time.Now()
		if _, err := res.def.setup(seed, in); err != nil {
			return err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	return nil
}

// describe prints what the run did, ahead of the JSON line: the outcome
// counts of one round and the behaviour digest over every instance.
func (res *result) describe(round []*rep) {
	var arrivals, admitted, rejected, completed, lost, hungUp int
	for _, r := range round {
		arrivals += r.arrivals
		admitted += r.admitted
		rejected += r.rejected
		completed += r.completed
		lost += r.lost
		hungUp += r.hungUp
	}
	fmt.Printf("workload %s seed %d: %d reps of %d instances; per round %d arrivals, %d admitted, %d rejected, %d completed, %d failed, %d hung up\n",
		res.def.name, res.seed, len(res.reps), res.def.instances, arrivals, admitted, rejected, completed, lost, hungUp)
	h := fnv.New64a()
	for _, d := range res.digests {
		fmt.Fprintf(h, "%016x\n", d)
	}
	fmt.Printf("behaviour digest %016x\n", h.Sum64())
}

// measure is the untraced run: the end-to-end metrics.
func (res *result) measure(budget time.Duration) error {
	if err := res.timeSetups(); err != nil {
		return err
	}
	if _, err := res.rounds(budget, false); err != nil {
		return err
	}
	round := res.reps[:res.def.instances]
	res.describe(round)
	// Host figures pool every rep: instances differ in how much work a
	// virtual second holds, and the pooled figures weigh them by it.
	var host, vsec, peaks float64
	var qlat []float64
	var mallocs, arrivals uint64
	for i, r := range res.reps {
		fmt.Printf("rep %d: %d arrivals, %.3f host s for %.0f virtual s (%.2f/s), query p50 %.1f us p99 %.1f us, peak live heap %.1f MB\n",
			i, r.arrivals, r.host.Seconds(), r.vsec, r.vsec/r.host.Seconds(),
			quantile(r.qlat, 0.50), quantile(r.qlat, 0.99), float64(r.peakHeap)/(1<<20))
		host += r.host.Seconds()
		vsec += r.vsec
		qlat = append(qlat, r.qlat...)
		peaks += float64(r.peakHeap) / (1 << 20)
		mallocs += r.mallocs
		arrivals += uint64(r.arrivals)
	}
	fmt.Printf("query latency samples %d over %d reps\n", len(qlat), len(res.reps))
	var queries, rejected, admitted, qosOK int
	for _, r := range round {
		queries += r.arrivals
		rejected += r.rejected
		admitted += r.admitted
		qosOK += r.qosOK
	}
	res.put("vsec_per_s", "1/s", vsec/host)
	res.put("query_p50_us", "us", quantile(qlat, 0.50))
	res.put("query_p99_us", "us", quantile(qlat, 0.99))
	res.put("allocs_per_query", "count", float64(mallocs)/float64(arrivals))
	res.put("peak_heap_mb", "MB", peaks/float64(len(res.reps)))
	res.put("setup_s", "s", median(res.setups))
	res.put("reject_rate", "ratio", div(float64(rejected), float64(queries)))
	res.put("qos_ok_rate", "ratio", div(float64(qosOK), float64(admitted)))
	return nil
}

// traceRun makes traced rounds under the CPU profiler, between two
// untraced reps of the first instance: the reference for the tracing
// overhead, taken on both sides so that a drift in machine speed during
// the run cancels.
func (res *result) traceRun(budget time.Duration, outDir string) error {
	before, err := res.rep(0, false)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", res.def.name, res.seed))
	pf, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	defer pf.Close()
	if err := pprof.StartCPUProfile(pf); err != nil {
		return err
	}
	traced, err := res.rounds(budget, true)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}
	after, err := res.rep(0, false)
	if err != nil {
		return err
	}
	round := traced[:res.def.instances]
	res.describe(round)
	if err := traced[0].tr.write(base + ".spans.csv"); err != nil {
		return err
	}
	prof, err := readProfile(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	fmt.Println(roadmapCheck(prof))
	fmt.Printf("spans and profile of the traced run: %s.spans.csv, %s.cpu.pprof\n", base, base)
	layerMetrics(res.put, []*rep{before, after}, traced, round)
	profileMetrics(prof, res.put)
	return nil
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(q*float64(len(s))))-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
