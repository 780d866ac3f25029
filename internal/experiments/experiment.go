package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"

	"quasaq/internal/runner"
	"quasaq/internal/simtime"
)

// Every experiment is one Spec: the grid of hermetic (point × replica)
// cells, how one cell runs, and how the replica-merged points render — the
// console report, the -csv table, and the -bench JSON record. The ordered
// registry at the bottom of this file is the single list qsqbench validates
// -exp against, runs for -exp all, and writes -csv/-bench through; the
// determinism and merge tests iterate the same list. Adding an experiment is
// one file holding its config, cell function, and Spec, plus one registry
// entry.

// Settings carries every experiment knob qsqbench exposes as a flag; each
// Spec builds its own config from it.
type Settings struct {
	Seed  int64          // base seed; replica 0 runs it itself
	Sweep runner.Options // worker pool and replica count (Seed is set per experiment)

	Frames     int // fig5: trace length in frames
	Contention int // fig5: competing streams at high contention

	Fig6Horizon     float64 // fig6/throughput/ablation/dynamic: simulated seconds
	Fig7Horizon     float64 // fig7: simulated seconds
	OverheadQueries int     // overhead: planning calls to time

	ChaosHorizon float64 // chaos: simulated seconds
	FaultsFile   string  // chaos: fault-schedule file ("" = canonical schedule)
	TraceFile    string  // chaos: Chrome trace_event JSON output
	MetricsFile  string  // chaos: metrics registry JSON output

	AdmissionHorizon float64 // admission: arrival window in simulated seconds
	CtrlLatencyMs    float64 // admission: one-way control-message latency
	CtrlTimeoutMs    float64 // admission: per-attempt control RPC timeout
	CtrlRetries      int     // admission: retries after the first attempt
	CtrlLoss         float64 // admission: control-message loss probability

	OverloadScale float64 // overload: ramp and fault-time stretch factor

	Sessions   int     // saturate: total session arrivals
	Live       int     // saturate: sliding-window depth
	Goroutines int     // saturate: concurrent admission loops (throughput pass)
	Zipf       float64 // saturate: popularity skew exponent
}

// Spec describes one experiment. C is its config type, which carries the
// base seed in a Seed field; P is its per-point result, merged across
// replicas field by field (see mergeReplica).
type Spec[C, P any] struct {
	name   string
	inAll  bool // part of -exp all
	config func(Settings) (C, error)
	points func(C) []runner.Point
	run    func(c C, key string, seed int64) (P, error) // one cell: point key, replica seed
	// after runs once on the merged points, for work that is not a sweep
	// cell (saturate's wall-clock throughput pass).
	after func(*C, []P) error

	// columns are the per-point rows of the -csv table and of the -bench
	// record; table replaces them for experiments whose CSV rows are not
	// one per point (time series, traces, event logs).
	columns []column[P]
	table   func(C, []P) Table

	report  func(C, []P) string // the console report, printed under name
	reports []namedReport[C, P] // further reports over the same run, each its own -exp value
	files   func(Settings, []P) []File
	archive *archive[C, P] // the -bench record; nil when the experiment has none
}

type namedReport[C, P any] struct {
	name   string
	format func(C, []P) string
}

// archive shapes a Spec's JSON benchmark record:
// {"experiment": name, head..., rows: [one object per point], tail...}.
type archive[C, P any] struct {
	rows string
	head func(c C, reps int) object
	tail func(C, []P) object
}

// Experiment is the type-erased Spec that qsqbench drives.
type Experiment interface {
	Name() string
	// Names lists every -exp value that selects the experiment: its name,
	// then any further report it prints.
	Names() []string
	InAll() bool
	Archived() bool
	Run(s Settings) (*Output, error)

	runConfig(s Settings, cfg any) (*Output, error)
	pointType() reflect.Type
	merge(dst, src any)
}

// Report is one named block of console output.
type Report struct {
	Name string
	Text string
}

// File is a side artifact an experiment writes on request (chaos -trace).
type File struct {
	Path  string
	Write func(io.Writer) error
}

// Output is one executed experiment, rendered.
type Output struct {
	Reports []Report
	Files   []File
	CSV     func(io.Writer) error // the -csv table; nil when the experiment has none
	Record  func(io.Writer) error // the -bench record; nil when the experiment has none
}

// Name implements Experiment.
func (x *Spec[C, P]) Name() string { return x.name }

// Names implements Experiment.
func (x *Spec[C, P]) Names() []string {
	names := []string{x.name}
	for _, r := range x.reports {
		names = append(names, r.name)
	}
	return names
}

// InAll implements Experiment.
func (x *Spec[C, P]) InAll() bool { return x.inAll }

// Archived implements Experiment.
func (x *Spec[C, P]) Archived() bool { return x.archive != nil }

// Run implements Experiment: build the config from s, sweep, render.
func (x *Spec[C, P]) Run(s Settings) (*Output, error) {
	cfg, err := x.config(s)
	if err != nil {
		return nil, err
	}
	return x.render(s, cfg)
}

func (x *Spec[C, P]) runConfig(s Settings, cfg any) (*Output, error) {
	return x.render(s, cfg.(C))
}

func (x *Spec[C, P]) pointType() reflect.Type { return reflect.TypeFor[P]() }

func (x *Spec[C, P]) merge(dst, src any) { mergeReplica(dst.(P), src.(P)) }

func (x *Spec[C, P]) render(s Settings, cfg C) (*Output, error) {
	points, err := RunSweep(x, cfg, s.Sweep)
	if err != nil {
		return nil, err
	}
	if x.after != nil {
		if err := x.after(&cfg, points); err != nil {
			return nil, err
		}
	}
	reps := max(1, s.Sweep.Replicas)
	out := &Output{Reports: []Report{{x.name, x.report(cfg, points)}}}
	for _, r := range x.reports {
		out.Reports = append(out.Reports, Report{r.name, r.format(cfg, points)})
	}
	if x.files != nil {
		out.Files = x.files(s, points)
	}
	if x.table != nil || len(x.columns) > 0 {
		out.CSV = func(w io.Writer) error {
			if x.table != nil {
				return WriteTable(w, x.table(cfg, points))
			}
			return WriteTable(w, x.columnTable(points, reps))
		}
	}
	if a := x.archive; a != nil {
		out.Record = func(w io.Writer) error {
			rows := make([]object, len(points))
			for i, p := range points {
				for _, c := range x.columns {
					if c.json != nil {
						rows[i] = append(rows[i], field{c.name, c.json(p, reps)})
					}
				}
			}
			rec := append(object{{"experiment", x.name}}, a.head(cfg, reps)...)
			rec = append(rec, field{a.rows, rows})
			if a.tail != nil {
				rec = append(rec, a.tail(cfg, points)...)
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rec)
		}
	}
	return out, nil
}

func (x *Spec[C, P]) columnTable(points []P, reps int) Table {
	var t Table
	for _, c := range x.columns {
		if c.csv != nil {
			t.Header = append(t.Header, c.name)
		}
	}
	for _, p := range points {
		row := make([]string, 0, len(t.Header))
		for _, c := range x.columns {
			if c.csv != nil {
				row = append(row, c.csv(p, reps))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// RunSweep runs spec's grid under cfg on the worker pool and returns one
// replica-merged result per point, in point order. Output depends only on
// (cfg, replicas), never on the worker count.
func RunSweep[C, P any](spec *Spec[C, P], cfg C, opts runner.Options) ([]P, error) {
	opts.Seed = seedOf(cfg)
	prs, err := runner.Sweep[replica[P]](scenario[C, P]{spec, cfg}, opts)
	if err != nil {
		return nil, err
	}
	out := make([]P, len(prs))
	for i, pr := range prs {
		out[i] = pr.Result.v
	}
	return out, nil
}

// seedOf reads a config's base seed.
func seedOf(cfg any) int64 { return reflect.ValueOf(cfg).FieldByName("Seed").Int() }

// scenario adapts a Spec under one config to runner.Scenario.
type scenario[C, P any] struct {
	spec *Spec[C, P]
	cfg  C
}

func (s scenario[C, P]) Name() string           { return s.spec.name }
func (s scenario[C, P]) Points() []runner.Point { return s.spec.points(s.cfg) }
func (s scenario[C, P]) Run(p runner.Point, seed int64) (replica[P], error) {
	v, err := s.spec.run(s.cfg, p.Key, seed)
	return replica[P]{v}, err
}

// replica wraps one cell's result for the runner's merge contract.
type replica[P any] struct{ v P }

func (r replica[P]) Merge(o replica[P]) { mergeReplica(r.v, o.v) }

// onePoint is the grid of experiments whose sweep dimension is the replicas
// alone.
func onePoint[C any](key, label string) func(C) []runner.Point {
	return func(C) []runner.Point { return []runner.Point{{Key: key, Label: label}} }
}

// horizonHead is the record head most archives share: the base seed, the
// replica count, and the arrival window in seconds.
func horizonHead[C any](horizon func(C) simtime.Time) func(C, int) object {
	return func(c C, reps int) object {
		return object{{"seed", seedOf(c)}, {"replicas", reps}, {"horizon_s", simtime.ToSeconds(horizon(c))}}
	}
}

// column is one field of a per-point row: a CSV column and a JSON record
// key of the same name, or only one of the two when the other is nil.
// Replica-merged counters render as cross-replica means in the CSV and as
// totals in the record.
type column[P any] struct {
	name string
	csv  func(p P, reps int) string
	json func(p P, reps int) any
}

// label is a string column.
func label[P any](name string, get func(P) string) column[P] {
	return column[P]{name,
		func(p P, _ int) string { return get(p) },
		func(p P, _ int) any { return get(p) }}
}

// count is a replica-summed counter: the CSV shows the per-replica mean
// (the exact total for a single replica), the record the total.
func count[P any](name string, get func(P) int) column[P] {
	return column[P]{name,
		func(p P, reps int) string { return fmtCount(get(p), reps) },
		func(p P, _ int) any { return get(p) }}
}

// exact is an integer that is not a replica sum (a window size, a maximum).
func exact[P any](name string, get func(P) int) column[P] {
	return column[P]{name,
		func(p P, _ int) string { return strconv.Itoa(get(p)) },
		func(p P, _ int) any { return get(p) }}
}

// num is a float read as is (a ratio, a percentile of a pooled sample).
func num[P any](name, format string, get func(P) float64) column[P] {
	return column[P]{name,
		func(p P, _ int) string { return fmt.Sprintf(format, get(p)) },
		func(p P, _ int) any { return get(p) }}
}

// mean is a replica-summed float shown as its per-replica mean in both
// outputs.
func mean[P any](name, format string, get func(P) float64) column[P] {
	return column[P]{name,
		func(p P, reps int) string { return fmt.Sprintf(format, get(p)/float64(reps)) },
		func(p P, reps int) any { return get(p) / float64(reps) }}
}

// total is a replica-summed float: per-replica mean in the CSV, total in
// the record.
func total[P any](name, format string, get func(P) float64) column[P] {
	return column[P]{name,
		func(p P, reps int) string { return fmt.Sprintf(format, get(p)/float64(reps)) },
		func(p P, _ int) any { return get(p) }}
}

// csvOnly drops a column from the JSON record.
func csvOnly[P any](c column[P]) column[P] {
	c.json = nil
	return c
}

// jsonOnly is a record-only field, marshaled as is.
func jsonOnly[P any](name string, get func(P) any) column[P] {
	return column[P]{name: name, json: func(p P, _ int) any { return get(p) }}
}

// fmtCount renders a replica-merged counter: the exact total for a single
// run, the cross-replica mean once replicas were folded in.
func fmtCount(n, reps int) string {
	if reps <= 1 {
		return strconv.Itoa(n)
	}
	return strconv.FormatFloat(float64(n)/float64(reps), 'f', 1, 64)
}

// object is a JSON object that keeps its keys in declaration order.
type object []field

type field struct {
	key string
	val any
}

// MarshalJSON implements json.Marshaler.
func (o object) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range o {
		if i > 0 {
			b.WriteByte(',')
		}
		k, err := json.Marshal(f.key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(f.val)
		if err != nil {
			return nil, err
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// Table is a rendered CSV: a header plus data rows.
type Table struct {
	Header []string
	Rows   [][]string
}

// WriteTable writes the table as CSV. Deterministic: same table -> same
// bytes, regardless of how many workers produced the rows.
func WriteTable(w io.Writer, t Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	return cw.Error()
}

// registry is every experiment in qsqbench order: -exp all runs the InAll
// ones in this order.
var registry = []Experiment{
	Fig5, Fig6, Fig7, Throughput, Ablation, Dynamic, Admission, Overhead, Chaos,
	Overload, Transcode, Saturate, SLA, Edge,
}

// Registry returns every registered experiment in qsqbench order.
func Registry() []Experiment { return append([]Experiment(nil), registry...) }

// Select resolves a -exp value — an experiment or report name, or "all" —
// to the experiments it runs, in registry order.
func Select(exp string) ([]Experiment, error) {
	var out []Experiment
	for _, e := range registry {
		if exp == "all" && e.InAll() {
			out = append(out, e)
			continue
		}
		for _, n := range e.Names() {
			if n == exp {
				out = append(out, e)
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", exp)
	}
	return out, nil
}
