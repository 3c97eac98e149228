package chaos

import (
	"fmt"
	"strings"

	"repro/internal/afd"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/problems"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/transform"
)

// SlandererID is the target ID of the intentionally broken detector used as
// the harness's positive control.
const SlandererID = "detector:slanderer"

// DetectorTarget runs a failure detector's canonical automaton against the
// crash automaton and judges the trace with the detector's own checker.
type DetectorTarget struct {
	// Family names a Section-3.3 zoo detector, or "slanderer" for the
	// deliberately broken afd.Slanderer positive control.
	Family string
}

var _ Target = DetectorTarget{}

// ID implements Target.
func (d DetectorTarget) ID() string { return "detector:" + d.Family }

// MaxT implements Target: an AFD tolerates any fault pattern; keeping one
// location live keeps liveness clauses non-vacuous.
func (d DetectorTarget) MaxT(n int) int { return n - 1 }

func (d DetectorTarget) detector(n int) (afd.Detector, error) {
	if d.Family == "slanderer" {
		return afd.Slanderer{}, nil
	}
	return afd.Lookup(d.Family, n)
}

// Build implements Target.  Detector targets have no channels, so the
// adversarial network is irrelevant and ignored.
func (d DetectorTarget) Build(n int, plan system.FaultPlan, _ *system.Net, _ bool) (*Built, error) {
	det, err := d.detector(n)
	if err != nil {
		return nil, err
	}
	sys, err := ioa.NewSystem(det.Automaton(n), system.NewCrash(plan))
	if err != nil {
		return nil, err
	}
	return &Built{Sys: sys}, nil
}

// Checker implements Target: full membership under fair schedules, safety
// clauses only (prefix mode) otherwise.
func (d DetectorTarget) Checker(n int, _ system.FaultPlan, fair bool) func(trace.T) error {
	det, err := d.detector(n)
	if err != nil {
		return func(trace.T) error { return err }
	}
	w := afd.DefaultWindow()
	if !fair {
		w = afd.PrefixWindow()
	}
	return afd.Checker(det, n, w)
}

// ConsensusTarget runs the Section-9.3 consensus system S — CT processes, a
// channel mesh, fixed-proposal environments, a zoo detector, the crash
// automaton — and judges the trace against the Section-9.1 specification
// with f = ⌊(n-1)/2⌋.
type ConsensusTarget struct {
	// Family is the detector family consensus runs with (e.g. afd.FamilyOmega).
	Family string
}

var _ Target = ConsensusTarget{}

// ID implements Target.
func (c ConsensusTarget) ID() string { return "consensus:" + c.Family }

// MaxT implements Target: the CT algorithm needs a correct majority.
func (c ConsensusTarget) MaxT(n int) int { return (n - 1) / 2 }

// mixedProposals fixes deterministic mixed proposals (0,1,0,1,...), so
// validity and agreement are non-trivial.
func mixedProposals(n int) []int {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = i % 2
	}
	return vs
}

// Build implements Target.
func (c ConsensusTarget) Build(n int, plan system.FaultPlan, nt *system.Net, lifo bool) (*Built, error) {
	det, err := afd.Lookup(c.Family, n)
	if err != nil {
		return nil, err
	}
	spec := consensus.BuildSpec{
		N:      n,
		Family: c.Family,
		Det:    det.Automaton(n),
		Crash:  append([]ioa.Loc(nil), plan.Crash...),
		Values: mixedProposals(n),
		Net:    nt,
	}
	var clock *system.SendClock
	if lifo {
		clock = system.NewSendClock()
		spec.Clock = clock
	}
	sys, err := consensus.Build(spec)
	if err != nil {
		return nil, err
	}
	b := &Built{Sys: sys}
	b.Stop, _ = consensus.StopWhenAllDecided(n)
	if clock != nil {
		b.Prio = newestFirst(sys)
	}
	return b, nil
}

// newestFirst ranks channel deliveries by the send stamp of the message at
// the head of the delivering channel: the most recently sent deliverable
// message wins, realizing deliver-last-sent-first.  Non-delivery actions
// rank at zero, below any delivery.
func newestFirst(sys *ioa.System) sched.Priority {
	// TaskRef.Auto indexes sys.Automata(); cache the tracked channels.
	autos := sys.Automata()
	return func(tr ioa.TaskRef, act ioa.Action) int {
		if act.Kind != ioa.KindReceive {
			return 0
		}
		tc, ok := autos[tr.Auto].(*system.TrackedChannel)
		if !ok {
			return 0
		}
		if stamp, ok := tc.HeadStamp(); ok {
			return int(stamp)
		}
		return 0
	}
}

// Checker implements Target.  Under fair schedules the run is treated as
// complete (the step bound is generous and the stop condition fires once
// everyone live decided), enforcing termination; under unfair schedules
// only the safety clauses are enforced.
func (c ConsensusTarget) Checker(n int, _ system.FaultPlan, fair bool) func(trace.T) error {
	return consensus.Spec{N: n, F: c.MaxT(n)}.Checker(fair)
}

// GossipTarget runs the message-passing completeness-boosting reduction
// (transform.Gossip) from a weakly complete source detector to its strongly
// complete target, optionally chained into a final local reduction, and
// judges the final family's outputs with that detector's checker.  Because
// the boosted property genuinely depends on message delivery — the source
// emits its crash set at the minimum live location only — gossip targets
// are the survey's instrument for measuring which detector classes survive
// a degraded network.
type GossipTarget struct {
	// Source is the weakly complete source family (e.g. afd.FamilyQ).
	Source string
	// Out is the boosted family gossip produces (e.g. afd.FamilyP).
	Out string
	// Reduce, when non-empty, chains a transform.Catalog local reduction
	// Out→Reduce and judges Reduce instead (e.g. afd.FamilyOmega).
	Reduce string
	// Forward selects relay gossip (origin-tagged flooding with monotone
	// merges), which survives sparse-but-connected topologies and
	// reordering that defeat plain latest-set gossip.
	Forward bool
}

var _ Target = GossipTarget{}

// ID implements Target.
func (g GossipTarget) ID() string {
	prefix := "gossip:"
	if g.Forward {
		prefix = "relay:"
	}
	id := prefix + g.Source + ">" + g.Out
	if g.Reduce != "" {
		id += ">" + g.Reduce
	}
	return id
}

// MaxT implements Target.
func (g GossipTarget) MaxT(n int) int { return n - 1 }

// reduction finds the catalog reduction Out→Reduce.
func (g GossipTarget) reduction() (transform.Local, error) {
	for _, l := range transform.Catalog() {
		if l.From == g.Out && l.To == g.Reduce {
			return l, nil
		}
	}
	return transform.Local{}, fmt.Errorf("chaos: no catalog reduction %s→%s", g.Out, g.Reduce)
}

// family is the family the checker judges.
func (g GossipTarget) family() string {
	if g.Reduce != "" {
		return g.Reduce
	}
	return g.Out
}

// Build implements Target.  The intermediate families stay visible in the
// trace — the checker projects onto the final family, and hiding would make
// the recorded trace incomplete for cross-engine replay.
func (g GossipTarget) Build(n int, plan system.FaultPlan, nt *system.Net, lifo bool) (*Built, error) {
	src, err := afd.Lookup(g.Source, n)
	if err != nil {
		return nil, err
	}
	autos := []ioa.Automaton{src.Automaton(n)}
	autos = append(autos, transform.Gossip{From: g.Source, To: g.Out, Forward: g.Forward}.Procs(n)...)
	if g.Reduce != "" {
		red, err := g.reduction()
		if err != nil {
			return nil, err
		}
		autos = append(autos, red.Procs(n)...)
	}
	var clock *system.SendClock
	if lifo {
		clock = system.NewSendClock()
		autos = append(autos, system.NetTrackedChannels(n, clock, nt)...)
	} else {
		autos = append(autos, system.NetChannels(n, nt)...)
	}
	autos = append(autos, system.NewCrash(plan))
	sys, err := ioa.NewSystem(autos...)
	if err != nil {
		return nil, err
	}
	b := &Built{Sys: sys}
	if clock != nil {
		b.Prio = newestFirst(sys)
	}
	return b, nil
}

// Checker implements Target: the final family's detector checker over its
// projected outputs (afd.Checker projects internally, so the multi-family
// trace is judged correctly).
func (g GossipTarget) Checker(n int, _ system.FaultPlan, fair bool) func(trace.T) error {
	det, err := afd.Lookup(g.family(), n)
	if err != nil {
		return func(trace.T) error { return err }
	}
	w := afd.DefaultWindow()
	if !fair {
		w = afd.PrefixWindow()
	}
	return afd.Checker(det, n, w)
}

// URBTarget runs the uniform reliable broadcast diffusion algorithm
// (problems.URBMajorityProcs) with one single-shot broadcaster environment
// per location and judges the trace against problems.URBSpec.  Detector-free
// and channel-heavy, it measures how a quorum-based problem degrades under
// topology restrictions and message loss.
type URBTarget struct{}

var _ Target = URBTarget{}

// ID implements Target.
func (URBTarget) ID() string { return "urb:majority" }

// MaxT implements Target: the diffusion algorithm needs a correct majority.
func (URBTarget) MaxT(n int) int { return (n - 1) / 2 }

// Build implements Target.
func (URBTarget) Build(n int, plan system.FaultPlan, nt *system.Net, lifo bool) (*Built, error) {
	autos := problems.URBMajorityProcs(n)
	var clock *system.SendClock
	if lifo {
		clock = system.NewSendClock()
		autos = append(autos, system.NetTrackedChannels(n, clock, nt)...)
	} else {
		autos = append(autos, system.NetChannels(n, nt)...)
	}
	for i := 0; i < n; i++ {
		autos = append(autos, problems.NewBroadcasterEnv(ioa.Loc(i), string(rune('a'+i))))
	}
	autos = append(autos, system.NewCrash(plan))
	sys, err := ioa.NewSystem(autos...)
	if err != nil {
		return nil, err
	}
	b := &Built{Sys: sys}
	if clock != nil {
		b.Prio = newestFirst(sys)
	}
	return b, nil
}

// Checker implements Target.
func (URBTarget) Checker(n int, _ system.FaultPlan, fair bool) func(trace.T) error {
	return func(t trace.T) error { return problems.URBSpec{N: n}.Check(t, fair) }
}

// ParticipantTarget runs consensus via the participant detector
// (problems.ConsensusViaParticipantProcs + ParticipantOracle) and judges
// both the consensus specification and the participant-detector contract.
// The oracle answers queries with the first querier, which every live
// location must learn of over the channels — so the reduction's termination
// is message-dependent, making it a churn-flavored survey row.
type ParticipantTarget struct{}

var _ Target = ParticipantTarget{}

// ID implements Target.
func (ParticipantTarget) ID() string { return "participant:consensus" }

// MaxT implements Target: the reduction as specified tolerates no crashes
// (a crashed first-querier blocks every waiter).
func (ParticipantTarget) MaxT(int) int { return 0 }

// Build implements Target.
func (ParticipantTarget) Build(n int, plan system.FaultPlan, nt *system.Net, lifo bool) (*Built, error) {
	autos := problems.ConsensusViaParticipantProcs(n)
	var clock *system.SendClock
	if lifo {
		clock = system.NewSendClock()
		autos = append(autos, system.NetTrackedChannels(n, clock, nt)...)
	} else {
		autos = append(autos, system.NetChannels(n, nt)...)
	}
	autos = append(autos, problems.NewParticipantOracle(n))
	autos = append(autos, system.ConsensusEnvsFixed(mixedProposals(n))...)
	autos = append(autos, system.NewCrash(plan))
	sys, err := ioa.NewSystem(autos...)
	if err != nil {
		return nil, err
	}
	b := &Built{Sys: sys}
	if clock != nil {
		b.Prio = newestFirst(sys)
	}
	return b, nil
}

// Checker implements Target: the consensus specification (f = 0) plus the
// participant-detector contract.
func (p ParticipantTarget) Checker(n int, _ system.FaultPlan, fair bool) func(trace.T) error {
	cons := consensus.Spec{N: n, F: 0}.Checker(fair)
	return func(t trace.T) error {
		if err := cons(t); err != nil {
			return err
		}
		return problems.CheckParticipant(t)
	}
}

// ParseTargets resolves a comma-separated list of target IDs; the empty
// list is DefaultTargets().
func ParseTargets(ids string) ([]Target, error) {
	if ids == "" {
		return DefaultTargets(), nil
	}
	var out []Target
	for _, id := range strings.Split(ids, ",") {
		t, err := ParseTarget(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ParseTarget resolves an artifact target ID back to a Target.
func ParseTarget(id string) (Target, error) {
	switch {
	case strings.HasPrefix(id, "detector:"):
		return DetectorTarget{Family: strings.TrimPrefix(id, "detector:")}, nil
	case strings.HasPrefix(id, "consensus:"):
		return ConsensusTarget{Family: strings.TrimPrefix(id, "consensus:")}, nil
	case strings.HasPrefix(id, "gossip:"), strings.HasPrefix(id, "relay:"):
		forward := strings.HasPrefix(id, "relay:")
		body := strings.TrimPrefix(strings.TrimPrefix(id, "gossip:"), "relay:")
		parts := strings.Split(body, ">")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("chaos: malformed gossip target %q", id)
		}
		g := GossipTarget{Source: parts[0], Out: parts[1], Forward: forward}
		if len(parts) == 3 {
			g.Reduce = parts[2]
		}
		return g, nil
	case id == "urb:majority":
		return URBTarget{}, nil
	case id == "participant:consensus":
		return ParticipantTarget{}, nil
	default:
		return nil, fmt.Errorf("chaos: unknown target %q", id)
	}
}
