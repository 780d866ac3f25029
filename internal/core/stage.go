package core

import (
	"quasaq/internal/qos"
)

// StageKind identifies a stage's role in the delivery pipeline.
type StageKind uint8

// The three stage roles of a QuaSAQ delivery plan, in pipeline order:
// reading the replica at its home site, converting it (inline on the
// delivery CPU or offloaded to the transcoding farm), and streaming to the
// client.
const (
	StageSource StageKind = iota
	StageTranscode
	StageDeliver
	// StageTailDeliver is the second delivery leg of a split plan: after
	// the edge prefix drains, the session hands over to this stage's site,
	// which streams the tail of the video from its full replica.
	StageTailDeliver
)

// String names the stage kind.
func (k StageKind) String() string {
	switch k {
	case StageSource:
		return "source"
	case StageTranscode:
		return "transcode"
	case StageDeliver:
		return "deliver"
	case StageTailDeliver:
		return "tail-deliver"
	default:
		return "unknown"
	}
}

// Stage is one node of a plan's execution DAG: a unit of work bound to a
// site (or the farm tier) with its own resource demand. Admission reserves
// every stage with reservation demand through the broker two-phase
// coordinator as one multi-participant transaction — all stages commit or
// none do, and a partition mid-PREPARE leaves only TTL-reclaimed leases.
type Stage struct {
	Kind StageKind
	// Site is where the stage runs: a cluster site, or the farm pseudo-site
	// for an offloaded transcode.
	Site string
	// Suffix distinguishes the stage's reservation participant: the
	// delivery stage reserves under the video title itself, the source
	// stage under "-relay", a farm transcode under "-transcode".
	Suffix string
	// Vec is the stage's reservation demand. A zero vector means the
	// stage's cost is folded into another stage (an inline transcode rides
	// the delivery stage's CPU) and no participant is reserved for it.
	Vec qos.ResourceVector
	// Work is the stage's processing rate in CPU-seconds per second of
	// video — what the transport submits per GOP when the stage runs on
	// the farm. Zero for source/deliver stages.
	Work float64
	// DependsOn lists the indices (into Plan.Stages) of stages that must
	// hold resources before this one produces: the DAG's precedence edges.
	DependsOn []int
}

// FarmOffloaded reports whether the plan's transcode stage runs on the
// shared farm tier rather than inline on the delivery site's CPU.
func (p *Plan) FarmOffloaded() bool {
	for _, st := range p.Stages {
		if st.Kind == StageTranscode && st.Site != p.DeliverySite {
			return true
		}
	}
	return false
}

// TranscodeStage returns the plan's transcode stage, or nil.
func (p *Plan) TranscodeStage() *Stage {
	for i := range p.Stages {
		if p.Stages[i].Kind == StageTranscode {
			return &p.Stages[i]
		}
	}
	return nil
}

// reservationOrder fixes the order stages are reserved in: the delivery
// site first (the scarcest decision — matching the pre-DAG atomic path
// byte-for-byte), then the split plan's tail leg, then the source relay,
// then the farm. Edge-less plans never carry a tail stage, so their
// reservation sequence is unchanged. The coordinator PREPAREs sequentially
// in this order.
var reservationOrder = [...]StageKind{StageDeliver, StageTailDeliver, StageSource, StageTranscode}

// ReservationStages returns the stages that hold resources, in reservation
// order. Stages with a zero demand vector are skipped — an inline
// transcode needs no participant of its own.
func (p *Plan) ReservationStages() []Stage {
	out := make([]Stage, 0, len(p.Stages))
	for _, kind := range reservationOrder {
		for _, st := range p.Stages {
			if st.Kind == kind && st.Vec != (qos.ResourceVector{}) {
				out = append(out, st)
			}
		}
	}
	return out
}

// FarmBinding points the plan generator at the shared transcoding tier:
// when set, every transcoding candidate is emitted twice — once running
// inline on the delivery CPU, once offloading the conversion to the farm
// pseudo-site — and the cost models price the farm's congestion like any
// other bucket.
type FarmBinding struct {
	// Site is the farm's pseudo-site name in the cluster node table.
	Site string
}
