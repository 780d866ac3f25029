// Package deploy assembles a QuaSAQ world from one Config, validated as a
// whole before anything is built. The tiers depend on each other (the edge
// cache indexes the loaded corpus, the replicator takes edge promotions, the
// guardian watches admissions), so Open builds them in the one order that
// wires each dependency after the thing it needs:
//
//	cluster → control plane → corpus → manager → failover, tracing →
//	admission queue → farm → edge tier → dynamic replication → guardian
package deploy

import (
	"errors"
	"fmt"

	"quasaq/internal/broker"
	"quasaq/internal/core"
	"quasaq/internal/edgecache"
	"quasaq/internal/faults"
	"quasaq/internal/gara"
	"quasaq/internal/guardian"
	"quasaq/internal/media"
	"quasaq/internal/netsim"
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/simtime"
	"quasaq/internal/transcode"
)

// Config describes one deployment. A nil tier field leaves the tier off;
// the zero Config is the paper's three-server testbed with an empty catalog.
type Config struct {
	// Sites lists the origin server names; default is the paper's three
	// servers. The name core.FarmSite is reserved.
	Sites []string
	// Capacity is the per-server capacity; default matches the testbed
	// (3200 KB/s outbound, one CPU).
	Capacity gara.NodeCapacity
	// Model is the plan cost model; default LRB.
	Model core.CostModel
	// SingleCopyReplication disables the quality ladder (ablation).
	SingleCopyReplication bool
	// Videos is the corpus ingested at open: catalog insertion,
	// content-metadata extraction, offline replication across sites, and
	// QoS-profile sampling (the offline components of §3.1).
	Videos []*media.Video
	// Control configures the distributed control plane. The zero value is
	// the synchronous path; non-zero latency or loss turns cross-site
	// admission into message-passing two-phase reservations, and the
	// synchronous entry points then return core.ErrAsyncControl.
	Control broker.Config

	// Failover turns on failure detection and mid-stream recovery.
	Failover *core.FailoverPolicy
	// AdmissionQueue puts a deadline-aware queue in front of admission.
	AdmissionQueue *core.AdmissionQueueConfig
	// Guardian starts the runtime QoS guardian; the zero config uses its
	// defaults.
	Guardian *guardian.Config
	// Farm attaches the elastic transcoding tier; the zero config is a
	// neutral farm indistinguishable from inline transcoding.
	Farm *transcode.FarmConfig
	// Edge provisions cooperative edge proxy-cache sites, each origin site
	// homed on one of them round-robin. Needs a corpus.
	Edge *EdgeTier
	// Dynamic starts the online replicator (§2 item 1). Needs a corpus.
	Dynamic *DynamicReplication
	// Tracing records per-session pipeline spans on the virtual clock.
	Tracing bool
}

// EdgeTier is the edge proxy-cache tier: its sites and the prefix-cache
// policy they share.
type EdgeTier struct {
	Sites  []core.EdgeSite
	Config edgecache.Config
}

// DynamicReplication paces the online replicator: up to Batch new replicas
// every Interval.
type DynamicReplication struct {
	Interval simtime.Time
	Batch    int
}

// validate reports the first setting no world can be built with, naming
// its field.
func (c Config) validate() error {
	taken := map[string]bool{core.FarmSite: true}
	for _, s := range c.Sites {
		if taken[s] {
			return fmt.Errorf("deploy: Sites: duplicate or reserved site name %q", s)
		}
		taken[s] = true
	}
	for _, f := range []struct {
		name string
		err  error
	}{
		{"Control", c.Control.Validate()},
		{"Failover", validate(c.Failover, core.FailoverPolicy.Validate)},
		{"AdmissionQueue", validate(c.AdmissionQueue, core.AdmissionQueueConfig.Validate)},
		{"Guardian", validate(c.Guardian, guardian.Config.Validate)},
		{"Farm", validate(c.Farm, transcode.FarmConfig.Validate)},
	} {
		if f.err != nil {
			return fmt.Errorf("deploy: %s: %w", f.name, f.err)
		}
	}
	if e := c.Edge; e != nil {
		if len(c.Videos) == 0 || len(e.Sites) == 0 {
			return errors.New("deploy: Edge: needs a corpus in Videos and at least one edge site")
		}
		for _, s := range e.Sites {
			if taken[s.Name] {
				return fmt.Errorf("deploy: Edge: site %q collides with another site", s.Name)
			}
			taken[s.Name] = true
		}
	}
	if d := c.Dynamic; d != nil && (len(c.Videos) == 0 || d.Interval <= 0 || d.Batch <= 0) {
		return fmt.Errorf("deploy: Dynamic: needs a corpus in Videos and a positive Interval and Batch, got %+v", *d)
	}
	return nil
}

// validate checks an optional tier's config; an absent tier is valid.
func validate[T any](cfg *T, check func(T) error) error {
	if cfg == nil {
		return nil
	}
	return check(*cfg)
}

// World is an assembled deployment on its own virtual clock. Tier fields
// are nil when the tier is off.
type World struct {
	Sim      *simtime.Simulator
	Cluster  *core.Cluster
	Manager  *core.Manager
	Guardian *guardian.Guardian
	Edge     *edgecache.Manager
	Dynamic  *replication.Dynamic
	// Stored is the number of bytes the corpus load stored.
	Stored int64
}

// Open validates cfg and builds its world.
func Open(cfg Config) (*World, error) {
	if len(cfg.Sites) == 0 {
		cfg.Sites = []string{"srv-a", "srv-b", "srv-c"}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Capacity == (gara.NodeCapacity{}) {
		cfg.Capacity = gara.DefaultCapacity()
	}
	if cfg.Model == nil {
		cfg.Model = core.LRB{}
	}
	pol := replication.DefaultPolicy()
	if cfg.SingleCopyReplication {
		pol = replication.SingleCopyPolicy()
	}
	w := &World{Sim: simtime.NewSimulator()}
	c, err := core.NewCluster(w.Sim, cfg.Sites, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	w.Cluster = c
	if err := c.ConfigureControl(cfg.Control); err != nil {
		return nil, err
	}
	if w.Stored, err = c.LoadCorpus(cfg.Videos, pol); err != nil {
		return nil, err
	}
	m := core.NewManager(c, cfg.Model)
	w.Manager = m
	if cfg.Failover != nil {
		if err := m.EnableFailover(*cfg.Failover); err != nil {
			return nil, err
		}
	}
	if cfg.Tracing {
		m.EnableTracing()
	}
	if cfg.AdmissionQueue != nil {
		if err := m.ConfigureAdmissionQueue(*cfg.AdmissionQueue); err != nil {
			return nil, err
		}
	}
	if cfg.Farm != nil {
		if _, err := m.EnableFarm(*cfg.Farm); err != nil {
			return nil, err
		}
	}
	if e := cfg.Edge; e != nil {
		if w.Edge, err = m.EnableEdgeTier(e.Sites, e.Config); err != nil {
			return nil, err
		}
		for i, s := range cfg.Sites {
			w.Edge.MapClient(s, e.Sites[i%len(e.Sites)].Name)
		}
	}
	if d := cfg.Dynamic; d != nil {
		sites := make([]replication.Site, 0, len(cfg.Sites))
		for _, s := range cfg.Sites {
			sites = append(sites, replication.Site{Name: s, Blobs: c.Blobs[s]})
		}
		w.Dynamic = replication.NewDynamic(w.Sim, c.Dir, cfg.Videos, sites)
		// Replica bytes travel over the source site's outbound link.
		links := make(map[string]*netsim.Link, len(c.Nodes))
		for name, node := range c.Nodes {
			links[name] = node.Link()
		}
		w.Dynamic.SetLinks(links)
		w.Dynamic.Start(d.Interval, d.Batch)
		// Sustained edge popularity that outgrows a site's cache budget
		// becomes replication demand.
		if w.Edge != nil {
			w.Edge.SetPromote(w.Dynamic.Boost)
		}
	}
	if cfg.Guardian != nil {
		if w.Guardian, err = guardian.New(m, *cfg.Guardian); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Observe feeds one arriving request's demand to the tiers that learn from
// it, the dynamic replicator and the edge cache, before it is served.
func (w *World) Observe(site string, id media.VideoID, req qos.Requirement) {
	if w.Dynamic != nil {
		w.Dynamic.Observe(id, req)
	}
	if w.Edge != nil {
		w.Edge.Observe(site, id)
	}
}

// InjectFaults arms a fault schedule against the origin sites on the
// virtual clock; the injector's log records what fired.
func (w *World) InjectFaults(s faults.Schedule) (*faults.Injector, error) {
	in := faults.NewInjector(w.Sim)
	for _, site := range w.Cluster.Sites() {
		in.RegisterNode(w.Cluster.Nodes[site])
	}
	return in, in.Apply(s)
}
