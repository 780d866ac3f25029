// Package quasaq is the public API of the QuaSAQ reproduction: a QoS-aware
// distributed multimedia database in the architecture of "QuaSAQ: An
// Approach to Enabling End-to-End QoS for Multimedia Databases" (EDBT
// 2004).
//
// A DB bundles the simulated three-tier substrate (storage manager, content
// engine, CPU schedulers, network links), the offline replication pipeline,
// and the QoS-aware query processor. Queries run in two phases, exactly as
// in the paper: the content phase resolves a (QoS-extended) SQL query to
// logical video objects; the QoS phase enumerates delivery plans over the
// replica/site/drop/transcode/encrypt space, costs them under current
// contention with the Lowest Resource Bucket model, reserves resources
// through the composite QoS API, and streams.
//
// Everything runs on a deterministic virtual clock: Advance moves time,
// sessions progress, and completions fire synchronously. See the examples
// directory for end-to-end usage.
package quasaq

import (
	"errors"
	"fmt"
	"io"

	"quasaq/internal/broker"
	"quasaq/internal/core"
	"quasaq/internal/deploy"
	"quasaq/internal/edgecache"
	"quasaq/internal/faults"
	"quasaq/internal/gara"
	"quasaq/internal/guardian"
	"quasaq/internal/media"
	"quasaq/internal/netsim"
	"quasaq/internal/obs"
	"quasaq/internal/qop"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
	"quasaq/internal/transcode"
	"quasaq/internal/transport"
	"quasaq/internal/vdbms"
)

// Re-exported substrate types: the vocabulary of the public API.
type (
	// Video is a logical video object (content identity + temporal
	// structure).
	Video = media.Video
	// VideoID names a logical video.
	VideoID = media.VideoID
	// AppQoS is a quantitative application-QoS tuple.
	AppQoS = qos.AppQoS
	// Requirement is the QoS range component of a QoS-aware query.
	Requirement = qos.Requirement
	// Resolution is a spatial resolution.
	Resolution = qos.Resolution
	// ResourceVector is a per-resource demand/usage/capacity vector.
	ResourceVector = qos.ResourceVector
	// NodeCapacity configures one server's resources.
	NodeCapacity = gara.NodeCapacity
	// QoP is a qualitative user quality request.
	QoP = qop.QoP
	// Profile is a user profile translating QoP to QoS.
	Profile = qop.Profile
	// Plan is one QoS-aware delivery plan.
	Plan = core.Plan
	// Delivery is an admitted, executing delivery.
	Delivery = core.Delivery
	// Session is the underlying streaming session.
	Session = transport.Session
	// CostModel ranks candidate plans under current contention.
	CostModel = core.CostModel
	// FailoverPolicy tunes failure detection and mid-stream recovery.
	FailoverPolicy = core.FailoverPolicy
	// FailoverEvent describes one concluded recovery.
	FailoverEvent = core.FailoverEvent
	// FaultSchedule is an ordered fault-injection plan.
	FaultSchedule = faults.Schedule
	// FaultEvent is one scheduled fault.
	FaultEvent = faults.Event
	// SearchResult is one content-phase match.
	SearchResult = vdbms.Result
	// Time is a virtual timestamp (time.Duration from simulation start).
	Time = simtime.Time
	// MetricSnapshot is one exported metric point from the registry.
	MetricSnapshot = obs.MetricSnapshot
	// ControlPlaneConfig tunes the distributed control plane: inter-site
	// message latency, per-attempt timeout, retry budget, loss, and the
	// prepare TTL bounding orphaned reservations. The zero value is the
	// synchronous direct-call path.
	ControlPlaneConfig = broker.Config
	// BreakerConfig tunes the per-site control-RPC circuit breakers
	// (ControlPlaneConfig.Breaker); the zero value disables them.
	BreakerConfig = broker.BreakerConfig
	// RetryBudgetConfig bounds global control-RPC retry traffic
	// (ControlPlaneConfig.RetryBudget); the zero value disables it.
	RetryBudgetConfig = broker.RetryBudgetConfig
	// AdmissionQueueConfig tunes the deadline-aware admission queue; the
	// zero value disables queueing.
	AdmissionQueueConfig = core.AdmissionQueueConfig
	// GuardianConfig tunes the runtime QoS guardian (sampling window,
	// hysteresis, thresholds, degradation ladder).
	GuardianConfig = guardian.Config
	// GuardianStats is the guardian's counter snapshot.
	GuardianStats = guardian.Stats
	// GuardianRung identifies one degradation-ladder step.
	GuardianRung = guardian.Rung
	// QoSViolation is a declared runtime QoS breach; abandonment errors
	// carry it (errors.As).
	QoSViolation = guardian.Violation
	// GuardianEvent is one guardian action (breach, violation, ladder rung,
	// recovery, save), delivered to the OnGuardianEvent observer.
	GuardianEvent = guardian.Event
	// ObservedQoS is a session's observed-QoS snapshot (delay, jitter,
	// loss), read via Delivery.Observed.
	ObservedQoS = transport.ObservedQoS
	// NetMetric names a network-level QoS metric a WITH QOS clause can
	// bound: delay, jitter, loss, throughput.
	NetMetric = qos.NetMetric
	// NetThreshold is one directional network-metric bound (e.g.
	// "delay <= 40"); Requirement.WithNet AND-composes them.
	NetThreshold = qos.Threshold
	// NetQoS is an observed or priced network-metric vector, judged
	// against a Requirement's net terms via Requirement.Admits.
	NetQoS = qos.NetQoS
	// QoERecord is one row of the qoe history table: a violation or
	// recovery the guardian persisted through the vdbms, read back via
	// DB.QoEQuery.
	QoERecord = vdbms.QoERecord
	// FarmConfig configures the elastic transcoding farm (worker classes
	// plus autoscaler); the zero value is a neutral single-instant-worker
	// farm indistinguishable from inline transcoding.
	FarmConfig = transcode.FarmConfig
	// WorkerClass describes one heterogeneous transcoding worker class
	// (speed, startup latency, dollar price, fleet bounds).
	WorkerClass = transcode.WorkerClass
	// AutoscaleConfig tunes the farm's autoscaler (FarmConfig.Autoscale);
	// the zero value disables scaling.
	AutoscaleConfig = transcode.AutoscaleConfig
	// FarmStats is the transcoding farm's counter snapshot.
	FarmStats = transcode.FarmStats
	// Stage is one node of a plan's execution DAG (source-read, transcode,
	// deliver), read via Plan.Stages.
	Stage = core.Stage
	// StageKind classifies a plan stage.
	StageKind = core.StageKind
	// EdgeSite describes one proxy-cache site of the edge tier (name,
	// capacity, disk bound).
	EdgeSite = core.EdgeSite
	// EdgeConfig tunes the edge prefix-cache manager: prefix length in GOPs,
	// per-site byte budget, admission cadence, and promotion thresholds. The
	// zero value uses the defaults documented on the fields.
	EdgeConfig = edgecache.Config
	// EdgeStats is the edge tier's counter snapshot (prefix installs,
	// evictions, hits/misses, cooperative neighbor fills, promotions).
	EdgeStats = edgecache.Stats
)

// Stage kinds of a plan's execution DAG.
const (
	StageSource      = core.StageSource
	StageTranscode   = core.StageTranscode
	StageDeliver     = core.StageDeliver
	StageTailDeliver = core.StageTailDeliver
)

// Degradation-ladder rungs for custom GuardianConfig.Ladder values.
const (
	GuardianStepDown    = guardian.RungStepDown
	GuardianRenegotiate = guardian.RungRenegotiate
	GuardianMigrate     = guardian.RungMigrate
	GuardianAbandon     = guardian.RungAbandon
)

// Network metrics a WITH QOS clause can bound, and the two bound
// directions. Delay, jitter, and loss are lower-is-better (NetAtMost);
// throughput is higher-is-better (NetAtLeast).
const (
	NetLoss       = qos.NetLoss
	NetDelay      = qos.NetDelay
	NetJitter     = qos.NetJitter
	NetThroughput = qos.NetThroughput

	NetAtMost  = qos.AtMost
	NetAtLeast = qos.AtLeast
)

// ParseRequirement parses a bare QoS-term list — the text inside WITH QOS
// (...) — into a Requirement, including network-metric terms ("delay <= 40,
// loss <= 0.05, throughput >= 500000"). "any" or "" parse to the
// unconstrained Requirement.
var ParseRequirement = vdbms.ParseRequirement

// TestbedControlPlane returns realistic LAN control-plane parameters (5 ms
// one-way latency, 40 ms timeouts, two retries, 250 ms prepare TTL).
var TestbedControlPlane = broker.TestbedConfig

// Standard resolutions and QoP vocabulary, re-exported for convenience.
var (
	ResQCIF = qos.ResQCIF
	ResVCD  = qos.ResVCD
	ResCIF  = qos.ResCIF
	ResSD   = qos.ResSD
	ResDVD  = qos.ResDVD
)

// Qualitative QoP levels.
const (
	SpatialLow = qop.SpatialLow
	SpatialVCD = qop.SpatialVCD
	SpatialTV  = qop.SpatialTV
	SpatialDVD = qop.SpatialDVD

	TemporalChoppy   = qop.TemporalChoppy
	TemporalStandard = qop.TemporalStandard
	TemporalSmooth   = qop.TemporalSmooth

	ColorGray  = qop.ColorGray
	ColorBasic = qop.ColorBasic
	ColorTrue  = qop.ColorTrue

	SecurityNone     = qos.SecurityNone
	SecurityStandard = qos.SecurityStandard
	SecurityStrong   = qos.SecurityStrong
)

// Fault kinds for building FaultSchedule values directly.
const (
	FaultNodeCrash     = faults.NodeCrash
	FaultNodeRestart   = faults.NodeRestart
	FaultLinkDegrade   = faults.LinkDegrade
	FaultLinkRestore   = faults.LinkRestore
	FaultLinkPartition = faults.LinkPartition
	FaultLinkCongest   = faults.LinkCongest
	FaultLeaseRevoke   = faults.LeaseRevoke
)

// Profile constructors, re-exported.
var (
	// DefaultProfile returns a neutral user profile.
	DefaultProfile = qop.DefaultProfile
	// PhysicianProfile is the intro scenario's demanding profile.
	PhysicianProfile = qop.Physician
	// NurseProfile is the intro scenario's relaxed profile.
	NurseProfile = qop.Nurse
	// StandardCorpus builds the 15-video synthetic corpus of §5.
	StandardCorpus = media.StandardCorpus
)

// Cost models.
var (
	// ModelLRB is the paper's Lowest Resource Bucket model (Eq. 1).
	ModelLRB CostModel = core.LRB{}
	// ModelMinSum is the sum-of-ratios ablation model.
	ModelMinSum CostModel = core.MinSum{}
	// ModelStatic ignores runtime contention (traditional D-DBMS costing).
	ModelStatic CostModel = core.StaticCheapest{}
)

// QoSCatalog returns the QoS parameter taxonomy of the paper's Table 1
// (application/system/network levels).
func QoSCatalog() []qos.CatalogEntry { return qos.Catalog() }

// QoSCatalogEntry is one Table 1 row.
type QoSCatalogEntry = qos.CatalogEntry

// NewRandomModel returns the §5.2 randomized baseline evaluator.
func NewRandomModel(seed int64) CostModel {
	return core.NewRandom(simtime.NewRand(seed))
}

// Options configures Open: the origin sites, the corpus, the control plane
// and every optional tier, validated together before anything is built. A
// nil tier field leaves the tier off.
type Options = deploy.Config

// EdgeTier configures Options.Edge: the edge proxy-cache sites and the
// prefix-cache policy they share.
type EdgeTier = deploy.EdgeTier

// DynamicReplication configures Options.Dynamic: the online replicator
// materializes up to Batch of the hottest missing replica tiers every
// Interval, driven by the demand Deliver and Query observe.
type DynamicReplication = deploy.DynamicReplication

// DB is a QoS-aware multimedia database instance on a virtual clock.
type DB struct {
	w *deploy.World
}

// Open validates opts and builds the database: the sites, the control
// plane, the ingested corpus, the quality manager and each configured tier.
// An invalid setting is reported naming its Options field, before anything
// is built.
func Open(opts Options) (*DB, error) {
	w, err := deploy.Open(opts)
	if err != nil {
		return nil, err
	}
	return &DB{w: w}, nil
}

// StoredBytes reports the bytes offline replication stored for the corpus
// at open.
func (db *DB) StoredBytes() int64 { return db.w.Stored }

// Sites returns the server names.
func (db *DB) Sites() []string { return db.w.Cluster.Sites() }

// Videos returns the catalog.
func (db *DB) Videos() []*Video { return db.w.Cluster.Engine.All() }

// Video resolves a logical OID.
func (db *DB) Video(id VideoID) (*Video, error) { return db.w.Cluster.Engine.Video(id) }

// Now returns the current virtual time.
func (db *DB) Now() Time { return db.w.Sim.Now() }

// Advance runs the virtual clock forward by d, progressing every session.
func (db *DB) Advance(d Time) { db.w.Sim.RunUntil(db.w.Sim.Now() + d) }

// RunUntilIdle drains all pending work (every active session to
// completion).
func (db *DB) RunUntilIdle() { db.w.Sim.Run() }

// Search runs the content phase only: parse and evaluate the query,
// returning matching videos (with similarity distances for SIMILAR TO).
func (db *DB) Search(sql string) ([]SearchResult, error) {
	res, _, err := db.w.Cluster.Engine.ExecuteSQL(sql)
	return res, err
}

// Explain reports the access path and pipeline a query would use, without
// executing it.
func (db *DB) Explain(sql string) (string, error) {
	return db.w.Cluster.Engine.Explain(sql)
}

// Deliver runs the QoS phase for one video: plan, admit, reserve, stream.
func (db *DB) Deliver(site string, id VideoID, req Requirement) (*Delivery, error) {
	return db.service(site, id, req, core.ServiceOptions{})
}

// service is the synchronous QoS phase behind every Deliver variant and
// Query: the request's demand is observed first, then it is admitted.
func (db *DB) service(site string, id VideoID, req Requirement, opts core.ServiceOptions) (*Delivery, error) {
	db.w.Observe(site, id, req)
	return db.w.Manager.Service(site, id, req, opts)
}

// DeliverAsync runs the QoS phase with the admission decision delivered
// through done, after however many control-plane round trips the two-phase
// reservations take (move the clock with Advance/RunUntilIdle). Under the
// default synchronous control plane done fires before DeliverAsync returns.
func (db *DB) DeliverAsync(site string, id VideoID, req Requirement, done func(*Delivery, error)) {
	db.w.Observe(site, id, req)
	db.w.Manager.ServiceAsync(site, id, req, core.ServiceOptions{}, done)
}

// DeliverTraced is Deliver with a per-frame completion trace of up to n
// frames (for QoS analysis).
func (db *DB) DeliverTraced(site string, id VideoID, req Requirement, n int) (*Delivery, error) {
	return db.service(site, id, req, core.ServiceOptions{TraceFrames: n})
}

// DeliverToClient is Deliver with a modeled server-to-client network path
// (2-3 campus hops by default): the session additionally records
// client-side inter-frame delays and path loss. Pass n > 0 to also keep a
// server-side frame trace.
func (db *DB) DeliverToClient(site string, id VideoID, req Requirement, n int) (*Delivery, error) {
	path := netsim.DefaultCampusPath()
	return db.service(site, id, req, core.ServiceOptions{
		TraceFrames: n,
		Path:        &path,
		PathSeed:    int64(id)*7919 + 17,
	})
}

// DynamicReplicasCreated reports how many replicas the online replicator
// has materialized (zero when disabled).
func (db *DB) DynamicReplicasCreated() int {
	if db.w.Dynamic == nil {
		return 0
	}
	return db.w.Dynamic.Created()
}

// QueryResult is the outcome of a full two-phase query.
type QueryResult struct {
	// Matches are the content-phase results.
	Matches []SearchResult
	// Delivery is the admitted delivery of the best match (nil when the
	// query carried no QoS clause).
	Delivery *Delivery
}

// Query runs both phases: content search, then QoS-constrained delivery of
// the first match when the query carries a WITH QOS clause.
func (db *DB) Query(site string, sql string) (*QueryResult, error) {
	res, q, err := db.w.Cluster.Engine.ExecuteSQL(sql)
	if err != nil {
		return nil, err
	}
	out := &QueryResult{Matches: res}
	if !q.HasQoS || len(res) == 0 {
		return out, nil
	}
	d, err := db.service(site, res[0].Video.ID, q.QoS, core.ServiceOptions{})
	if err != nil {
		return out, err
	}
	out.Delivery = d
	return out, nil
}

// ErrExhausted reports that the requested QoP and every second-chance
// alternative were rejected.
var ErrExhausted = errors.New("quasaq: request and all alternatives rejected")

// Failure taxonomy, re-exported for errors.Is checks against Deliver,
// Renegotiate, and Delivery.Err results.
var (
	// ErrNoViablePlan: plans exist but none can run on live nodes (or
	// failover exhausted its budget without finding one).
	ErrNoViablePlan = core.ErrNoViablePlan
	// ErrNodeDown: the target (or query) site is crashed.
	ErrNodeDown = gara.ErrNodeDown
	// ErrLeaseRevoked: a resource lease was revoked by a fault.
	ErrLeaseRevoked = gara.ErrLeaseRevoked
	// ErrRejected: every candidate plan failed admission control; the chain
	// carries the last per-plan cause.
	ErrRejected = core.ErrRejected
	// ErrControlTimeout: a control-plane PREPARE/COMMIT starved its retry
	// budget (partition, loss); found on ErrRejected chains via errors.Is.
	ErrControlTimeout = core.ErrControlTimeout
	// ErrAsyncControl: a synchronous entry point (Deliver, Renegotiate) was
	// called while the control plane has latency or loss; use DeliverAsync
	// or RenegotiateAsync.
	ErrAsyncControl = core.ErrAsyncControl
	// ErrQoSAbandoned: the runtime guardian shed a session after the
	// degradation ladder ran out; the chain carries the violated metric as
	// a *QoSViolation (errors.As).
	ErrQoSAbandoned = guardian.ErrQoSAbandoned
	// ErrQoSUnsatisfiable: no candidate plan's priced network vector could
	// meet the query's WITH QOS network terms; always wrapped under
	// ErrRejected.
	ErrQoSUnsatisfiable = core.ErrQoSUnsatisfiable
	// ErrBrokerOpen: a control call was fast-failed by an open per-site
	// circuit breaker; found on ErrRejected chains via errors.Is.
	ErrBrokerOpen = broker.ErrBrokerOpen
	// ErrAdmissionDeadline: the request expired in the admission queue
	// before any plan was tried.
	ErrAdmissionDeadline = core.ErrAdmissionDeadline
)

// DefaultFailoverPolicy returns the standard heartbeat detector with
// bounded exponential backoff, re-exported from the quality manager.
var DefaultFailoverPolicy = core.DefaultFailoverPolicy

// OnFailover registers fn to observe every concluded recovery (success,
// best-effort downgrade, or abandonment).
func (db *DB) OnFailover(fn func(FailoverEvent)) { db.w.Manager.SetFailoverObserver(fn) }

// CrashSite fails a server: all its leases are revoked, its sessions die,
// and its link partitions. Idempotent.
func (db *DB) CrashSite(site string) error {
	n, err := db.w.Cluster.Node(site)
	if err != nil {
		return err
	}
	n.Fail()
	return nil
}

// RestoreSite brings a crashed server (and its link) back. Idempotent.
func (db *DB) RestoreSite(site string) error {
	n, err := db.w.Cluster.Node(site)
	if err != nil {
		return err
	}
	n.Restore()
	return nil
}

// SiteDown reports whether a server is crashed.
func (db *DB) SiteDown(site string) bool {
	n, err := db.w.Cluster.Node(site)
	return err == nil && n.Down()
}

// DegradeLink caps a site's outbound link at factor (0,1] of its
// configured capacity, revoking newest-first any reservations that no
// longer fit.
func (db *DB) DegradeLink(site string, factor float64) error {
	n, err := db.w.Cluster.Node(site)
	if err != nil {
		return err
	}
	n.Link().Degrade(factor)
	return nil
}

// RestoreLink returns a site's outbound link to full configured capacity.
func (db *DB) RestoreLink(site string) error {
	n, err := db.w.Cluster.Node(site)
	if err != nil {
		return err
	}
	n.Link().Restore()
	return nil
}

// InjectFaults arms a fault schedule against the database's sites on the
// virtual clock; the faults fire as Advance/RunUntilIdle move time.
func (db *DB) InjectFaults(s FaultSchedule) error {
	_, err := db.w.InjectFaults(s)
	return err
}

// ParseFaultSchedule reads the fault-schedule text format (see the
// internal/faults package comment: one "offset kind target [arg]" line per
// event).
func ParseFaultSchedule(text string) (FaultSchedule, error) {
	return faults.ParseSchedule(text)
}

// DeliverQoP translates the user's qualitative QoP through their profile
// and delivers. On admission rejection it walks the profile's degradation
// order through up to maxAlternatives weaker requirements — the paper's
// "second chance" renegotiation path (§3.2). It returns the delivery and
// the requirement that was finally admitted.
func (db *DB) DeliverQoP(site string, prof *Profile, q QoP, id VideoID, maxAlternatives int) (*Delivery, Requirement, error) {
	req := prof.Translate(q)
	d, err := db.Deliver(site, id, req)
	if err == nil {
		return d, req, nil
	}
	if !errors.Is(err, core.ErrRejected) && !errors.Is(err, core.ErrNoPlan) {
		return nil, req, err
	}
	for _, alt := range prof.Alternatives(q, maxAlternatives) {
		if d, aerr := db.Deliver(site, id, alt); aerr == nil {
			return d, alt, nil
		}
	}
	return nil, req, fmt.Errorf("%w: %v", ErrExhausted, err)
}

// Renegotiate re-plans a live delivery under a new requirement (user QoP
// change during playback, §3.2). Like Deliver, it requires the synchronous
// control plane and returns ErrAsyncControl otherwise — use
// RenegotiateAsync.
func (db *DB) Renegotiate(d *Delivery, req Requirement) (*Delivery, error) {
	return db.w.Manager.Renegotiate(d, req, core.ServiceOptions{})
}

// RenegotiateAsync is Renegotiate in continuation-passing form: done fires
// exactly once with the re-planned delivery (or the restored original
// alongside the upgrade error, or nil when both failed), after however many
// control-plane round trips the reservations take.
func (db *DB) RenegotiateAsync(d *Delivery, req Requirement, done func(*Delivery, error)) {
	db.w.Manager.RenegotiateAsync(d, req, core.ServiceOptions{}, done)
}

// OnGuardianEvent installs fn to receive every guardian event — window
// breaches, declared violations, ladder rungs firing, recoveries, and
// saves. Errors unless Options.Guardian was set; nil disables.
func (db *DB) OnGuardianEvent(fn func(GuardianEvent)) error {
	if db.w.Guardian == nil {
		return errors.New("quasaq: guardian not configured")
	}
	db.w.Guardian.SetObserver(fn)
	return nil
}

// GuardianStats returns the guardian's counters (zero value without a
// guardian).
func (db *DB) GuardianStats() GuardianStats {
	if db.w.Guardian == nil {
		return GuardianStats{}
	}
	return db.w.Guardian.Stats()
}

// QoEQuery reads the database's own QoE history — the qoe table the
// guardian appends a row to on every declared violation and recovery —
// with the same SQL surface as Search:
//
//	SELECT * FROM qoe WHERE metric = 'loss' AND kind = 'violation'
//	SELECT * FROM qoe WHERE session = 3 AND time >= 40 LIMIT 10
//
// Fields: session, video, site, metric, kind, counter, min, max, avg, peak
// (0/1), time (seconds). Rows come back ordered by (time, session,
// counter). Time-bounded predicates use the qoe time index.
func (db *DB) QoEQuery(sql string) ([]QoERecord, error) {
	recs, _, err := db.w.Cluster.Engine.QoESQL(sql)
	return recs, err
}

// QoECount returns the number of rows in the qoe history table.
func (db *DB) QoECount() int { return db.w.Cluster.Engine.QoECount() }

// TranscodeStats returns the farm's counter snapshot (zero value without a
// farm).
func (db *DB) TranscodeStats() FarmStats {
	f := db.w.Manager.Farm()
	if f == nil {
		return FarmStats{}
	}
	return f.Stats()
}

// EdgeSites returns the names of the enabled edge proxy sites in
// configuration order (empty without an edge tier).
func (db *DB) EdgeSites() []string { return db.w.Cluster.EdgeSites() }

// EdgeStats returns the edge tier's counter snapshot (zero value without an
// edge tier).
func (db *DB) EdgeStats() EdgeStats {
	if db.w.Edge == nil {
		return EdgeStats{}
	}
	return db.w.Edge.Stats()
}

// CongestLink squeezes a site's outbound link to factor (0,1] of its
// effective capacity with cross traffic: reservations stay booked but
// achieved rates drop — the observable drift the guardian reacts to.
// UncongestLink (or RestoreLink) clears it.
func (db *DB) CongestLink(site string, factor float64) error {
	n, err := db.w.Cluster.Node(site)
	if err != nil {
		return err
	}
	n.Link().Congest(factor)
	return nil
}

// UncongestLink clears cross-traffic congestion on a site's outbound link
// without touching any degradation or partition state.
func (db *DB) UncongestLink(site string) error {
	return db.CongestLink(site, 1)
}

// Stats reports quality-manager outcome counters.
type Stats struct {
	Queries        uint64
	Admitted       uint64
	Rejected       uint64
	NoPlan         uint64
	NoViablePlan   uint64
	PlansGenerated uint64
	Renegotiations uint64
	Outstanding    int

	// Plan-candidate cache counters: warm queries and failover retries are
	// served from memoized candidate sets; invalidations count entries
	// staled by topology or liveness epoch changes.
	PlanCacheHits          uint64
	PlanCacheMisses        uint64
	PlanCacheInvalidations uint64

	// Failure/failover counters (zero unless Options.Failover was set and
	// faults occurred).
	SessionFailures      uint64
	Failovers            uint64
	BestEffortFallbacks  uint64
	FailoverRejects      uint64
	FramesLostInFailover float64
	FailoverLatencyTotal Time
}

// Stats returns current counters.
func (db *DB) Stats() Stats {
	ms := db.w.Manager.Stats()
	cs := db.w.Manager.PlanCache().Stats()
	return Stats{
		Queries:        ms.Queries,
		Admitted:       ms.Admitted,
		Rejected:       ms.Rejected,
		NoPlan:         ms.NoPlan,
		NoViablePlan:   ms.NoViablePlan,
		PlansGenerated: ms.PlansGenerated,
		Renegotiations: ms.Renegotiations,
		Outstanding:    db.w.Cluster.OutstandingSessions(),

		PlanCacheHits:          cs.Hits,
		PlanCacheMisses:        cs.Misses,
		PlanCacheInvalidations: cs.Invalidations,

		SessionFailures:      ms.SessionFailures,
		Failovers:            ms.Failovers,
		BestEffortFallbacks:  ms.BestEffortFallbacks,
		FailoverRejects:      ms.FailoverRejects,
		FramesLostInFailover: ms.FramesLostInFailover,
		FailoverLatencyTotal: ms.FailoverLatencyTotal,
	}
}

// SiteUsage returns a site's current usage and capacity vectors — the LRB
// bucket fillings, for observability. Unknown sites return an error rather
// than zero vectors.
func (db *DB) SiteUsage(site string) (usage, capacity ResourceVector, err error) {
	return db.w.Cluster.Usage(site)
}

// TraceExport writes every span recorded under Options.Tracing (content
// lookup, plan enumeration, costing, reservation, streaming, GOP progress,
// failover, teardown) as Chrome trace_event JSON — load the output in
// chrome://tracing or ui.perfetto.dev. Errors unless tracing is on.
func (db *DB) TraceExport(w io.Writer) error { return db.w.Manager.Tracer().WriteJSON(w) }

// TraceEventCount returns the number of trace events recorded so far (zero
// when tracing is off).
func (db *DB) TraceEventCount() int { return db.w.Manager.Tracer().Len() }

// MetricsSnapshot returns every registry series (quality manager, plan
// cache, per-site gara/netsim/cpusched/transport counters) as one sorted
// export — the superset DB.Stats is a typed view of.
func (db *DB) MetricsSnapshot() []MetricSnapshot { return db.w.Cluster.Obs.Snapshot() }

// WriteMetricsJSON exports the full metrics registry as indented JSON.
func (db *DB) WriteMetricsJSON(w io.Writer) error { return db.w.Cluster.Obs.WriteJSON(w) }

// WriteMetricsCSV exports the full metrics registry as tidy CSV (one row
// per series, one per bucket for histograms).
func (db *DB) WriteMetricsCSV(w io.Writer) error { return db.w.Cluster.Obs.WriteCSV(w) }
