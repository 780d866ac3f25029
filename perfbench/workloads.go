package main

import (
	"fmt"

	"quasaq/internal/core"
	"quasaq/internal/edgecache"
	"quasaq/internal/experiments"
	"quasaq/internal/faults"
	"quasaq/internal/guardian"
	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/simtime"
	"quasaq/internal/workload"
)

// arrival is one generated query. The program sees only these fields: the
// benchmark derives every one of them from the seed.
type arrival struct {
	at    simtime.Time
	site  string
	video media.VideoID
	req   qos.Requirement
	sql   string       // non-empty: resolve the video through the content phase first
	hold  simtime.Time // non-zero: the viewer hangs up after this long
}

// inputs is everything one workload run feeds the program.
type inputs struct {
	corpus   []*media.Video
	arrivals []arrival
}

// world is the program under test, built from a workload's inputs.
type world struct {
	sim     *simtime.Simulator
	cluster *core.Cluster
	mgr     *core.Manager
	guard   *guardian.Guardian // overload only
	edge    *edgecache.Manager // edge-flash only
	async   bool               // admission through ServiceAsync
}

// workloadDef names one workload: how its inputs are generated from a
// seed, and how its world is built from them (the timed set-up). A run
// drives instances independent worlds, each from its own seed derived
// from the run's, so that a run's figures average over that many draws.
type workloadDef struct {
	name      string
	instances int
	inputs    func(seed int64) inputs
	setup     func(seed int64, in inputs) (*world, error)
}

var workloads = []workloadDef{
	{"overload", 6, overloadInputs, overloadSetup},
	{"edge-flash", 3, edgeInputs, edgeSetup},
	{"admit-churn", 3, churnInputs, churnSetup},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// poisson draws the generator's seeded open-loop arrivals up to horizon.
func poisson(cfg workload.Config, horizon simtime.Time) []arrival {
	gen := workload.New(cfg)
	var out []arrival
	for {
		r := gen.Next()
		if r.At > horizon {
			return out
		}
		out = append(out, arrival{at: r.At, site: r.Site, video: r.Video, req: r.Req})
	}
}

func horizon(phases []workload.Phase) simtime.Time {
	var h simtime.Time
	for _, p := range phases {
		h += p.Duration
	}
	return h
}

// testbedSites are the three origin sites of core.TestbedCluster, fixed
// here so inputs can be drawn before any world exists.
var testbedSites = []string{"srv-a", "srv-b", "srv-c"}

// --- overload: the guarded overload ramp (1→6→15→6→1×) with link
// congestion and a partition, async 5 ms control plane, breakers, retry
// budget, admission queue, failover and the QoS guardian.

func overloadInputs(seed int64) inputs {
	cfg := experiments.DefaultOverloadConfig()
	corpus := media.StandardCorpus(uint64(seed))
	return inputs{corpus: corpus, arrivals: poisson(workload.Config{
		Seed:             seed,
		Videos:           corpus,
		Sites:            testbedSites,
		MeanInterArrival: simtime.Seconds(1 / cfg.BaseLoad),
		Phases:           cfg.Phases,
	}, cfg.Horizon())}
}

func overloadSetup(seed int64, in inputs) (*world, error) {
	cfg := experiments.DefaultOverloadConfig()
	w, err := newWorld(in.corpus)
	if err != nil {
		return nil, err
	}
	ctrl := cfg.Ctrl
	ctrl.Seed = seed
	ctrl.Breaker = cfg.Breaker
	ctrl.RetryBudget = cfg.RetryBudget
	if err := w.cluster.ConfigureControl(ctrl); err != nil {
		return nil, err
	}
	w.async = true
	pol := core.DefaultFailoverPolicy()
	pol.BestEffortFallback = true
	w.mgr.EnableFailover(pol)
	if err := w.mgr.ConfigureAdmissionQueue(cfg.Queue); err != nil {
		return nil, err
	}
	if w.guard, err = guardian.New(w.mgr, cfg.Guardian); err != nil {
		return nil, err
	}
	inj := faults.NewInjector(w.sim)
	for _, site := range w.cluster.Sites() {
		inj.RegisterNode(w.cluster.Nodes[site])
	}
	if err := inj.Apply(cfg.Schedule); err != nil {
		return nil, err
	}
	return w, nil
}

// --- edge-flash: the edge experiment's Zipf(1.5) diurnal curve with a 6×
// flash crowd and two cooperative edge sites, stretched in time.

// edgeStretch lengthens every phase of the edge curve so one run lasts
// host seconds instead of a fraction of one.
const edgeStretch = 16

func edgePhases() []workload.Phase {
	ps := append([]workload.Phase(nil), experiments.DefaultEdgeExpConfig().Phases...)
	for i := range ps {
		ps[i].Duration *= edgeStretch
	}
	return ps
}

func edgeInputs(seed int64) inputs {
	cfg := experiments.DefaultEdgeExpConfig()
	corpus := media.StandardCorpus(uint64(seed))
	phases := edgePhases()
	return inputs{corpus: corpus, arrivals: poisson(workload.Config{
		Seed:             seed,
		Videos:           corpus,
		Sites:            testbedSites,
		MeanInterArrival: simtime.Seconds(1 / cfg.BaseLoad),
		ZipfSkew:         cfg.ZipfSkew,
		Phases:           phases,
	}, horizon(phases))}
}

func edgeSetup(_ int64, in inputs) (*world, error) {
	cfg := experiments.DefaultEdgeExpConfig()
	w, err := newWorld(in.corpus)
	if err != nil {
		return nil, err
	}
	if w.edge, err = w.mgr.EnableEdgeTier(cfg.Sites, cfg.Edge); err != nil {
		return nil, err
	}
	for i, s := range w.cluster.Sites() {
		w.edge.MapClient(s, cfg.Sites[i%len(cfg.Sites)].Name)
	}
	return w, nil
}

// --- admit-churn: ~200 queries per virtual second over a catalog of
// several hundred titles, synchronous control plane, every admitted viewer
// hanging up after an Exp(1 s) hold; a share of queries arrives as SQL.

const (
	churnTitles   = 360   // catalog size: the standard corpus cloned with fresh seeds
	churnRate     = 200.0 // queries per virtual second
	churnSeconds  = 100   // arrival window, virtual seconds
	churnSkew     = 1.1   // Zipf popularity skew
	churnHold     = 1.0   // mean viewing time before hang-up, virtual seconds
	churnSQLShare = 0.25  // share of queries sent as SQL text
)

// churnCatalog clones the standard corpus to churnTitles videos, each with
// a fresh content seed and a unique id and title.
func churnCatalog(seed int64) []*media.Video {
	base := media.StandardCorpus(uint64(seed))
	rng := simtime.NewRand(simtime.DeriveSeed(seed, "catalog"))
	out := make([]*media.Video, churnTitles)
	for i := range out {
		v := *base[i%len(base)]
		v.ID = media.VideoID(i + 1)
		v.Title = fmt.Sprintf("%s-%03d", v.Title, i)
		v.Tags = append([]string(nil), v.Tags...)
		v.Seed = uint64(rng.Int63())
		out[i] = &v
	}
	return out
}

func churnInputs(seed int64) inputs {
	corpus := churnCatalog(seed)
	arr := poisson(workload.Config{
		Seed:             seed,
		Videos:           corpus,
		Sites:            testbedSites,
		MeanInterArrival: simtime.Seconds(1 / churnRate),
		ZipfSkew:         churnSkew,
	}, simtime.Seconds(churnSeconds))
	rng := simtime.NewRand(simtime.DeriveSeed(seed, "viewers"))
	for i := range arr {
		a := &arr[i]
		a.hold = rng.ExpDur(simtime.Seconds(churnHold))
		if rng.Float64() >= churnSQLShare {
			continue
		}
		v := corpus[a.video-1]
		if rng.Intn(2) == 0 {
			a.sql = fmt.Sprintf("SELECT * FROM videos WHERE id = %d", v.ID)
		} else {
			a.sql = fmt.Sprintf("SELECT * FROM videos WHERE title = '%s'", v.Title)
		}
	}
	return inputs{corpus: corpus, arrivals: arr}
}

func churnSetup(_ int64, in inputs) (*world, error) {
	return newWorld(in.corpus)
}

// newWorld builds the three-server testbed with the corpus loaded and
// replicated offline, and an LRB quality manager over it.
func newWorld(corpus []*media.Video) (*world, error) {
	sim := simtime.NewSimulator()
	cluster := core.TestbedCluster(sim)
	if _, err := cluster.LoadCorpus(corpus, replication.DefaultPolicy()); err != nil {
		return nil, fmt.Errorf("load corpus: %w", err)
	}
	return &world{sim: sim, cluster: cluster, mgr: core.NewManager(cluster, core.LRB{})}, nil
}
