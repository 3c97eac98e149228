package chaos

import (
	"fmt"
	"strings"

	"repro/internal/afd"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/problems"
	"repro/internal/sched"
	"repro/internal/selfimpl"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/transform"
)

// SlandererID is the target ID of the intentionally broken detector used as
// the harness's positive control.
const SlandererID = "detector:slanderer"

// compose is the one wiring of every target's system: pre, then — for a
// message-passing target — the channel mesh of nt's topology, then post and
// the crash automaton realizing plan.  Under SchedLIFO (lifo) the mesh
// stamps every send on one clock and the built system carries the
// newest-first priority.
func compose(n int, plan system.FaultPlan, nt *system.Net, lifo, mesh bool, pre, post []ioa.Automaton) (*Built, error) {
	autos := pre
	var clock *system.SendClock
	switch {
	case !mesh:
	case lifo:
		clock = system.NewSendClock()
		autos = append(autos, system.NetTrackedChannels(n, clock, nt)...)
	default:
		autos = append(autos, system.NetChannels(n, nt)...)
	}
	autos = append(autos, post...)
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

// window is the detector-checking window: full membership under fair
// schedules, safety clauses only (prefix mode) otherwise.
func window(fair bool) afd.Window {
	if fair {
		return afd.DefaultWindow()
	}
	return afd.PrefixWindow()
}

// detectorChecker judges family's outputs with that detector's checker.
func detectorChecker(family string, n int, fair bool) func(trace.T) error {
	det, err := afd.Lookup(family, n)
	if err != nil {
		return func(trace.T) error { return err }
	}
	return afd.Checker(det, n, window(fair))
}

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
	return compose(n, plan, nil, false, false, []ioa.Automaton{det.Automaton(n)}, nil)
}

// Checker implements Target.
func (d DetectorTarget) Checker(n int, _ system.FaultPlan, fair bool) func(trace.T) error {
	det, err := d.detector(n)
	if err != nil {
		return func(trace.T) error { return err }
	}
	return afd.Checker(det, n, window(fair))
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
	return compose(n, plan, nt, lifo, true, autos, nil)
}

// Checker implements Target: the final family's detector checker over its
// projected outputs (afd.Checker projects internally, so the multi-family
// trace is judged correctly).
func (g GossipTarget) Checker(n int, _ system.FaultPlan, fair bool) func(trace.T) error {
	return detectorChecker(g.family(), n, fair)
}

// row is one entry of the registry: how a target ID's system is composed
// and judged.  Its automata are procs, the channel mesh when mesh is set,
// envs, the detector family's canonical automaton when detector is set, and
// the crash automaton, in that order.
//
//	ID                         procs                        envs                   detector  maxT
//	consensus:<fd>[@v]         CT (Section 9.3)             fixed proposals        fd        ⌊(n−1)/2⌋
//	smachine:<fd>              the CT96 S algorithm         proposals 0,1,0,1,…    fd        n−1
//	kset                       (f+1)-set, f = ⌊(n−1)/2⌋     proposals 0,1,0,1,…    —         f
//	nbac[@v]                   NBAC over P                  voters (1 yes, 0 no)   FD-P      n−1
//	trb                        TRB over P, sender 0         sender of "payload"    FD-P      n−1
//	urb:majority               URB by majority diffusion    one broadcaster each   —         ⌊(n−1)/2⌋
//	urb:P                      URB over P                   one broadcaster each   FD-P      n−1
//	mutex:<fd>                 ◇-mutex token ring           —                      fd        n−1
//	participant:consensus[@v]  consensus via participant    oracle, proposals      —         0
//	participant:via-consensus  participant via consensus    two queries each       FD-Ω      ⌊(n−1)/2⌋
//	selfimpl:<fd>              fd's automaton, Aself        —                      —         n−1
//
// selfimpl composes no channels.  The @v suffix lists one binary digit per
// location (nbac@101); without it the proposals are 0,1,0,1,… and the NBAC
// votes all yes.  Binary proposals allow at most two distinct decisions,
// so kset's k-agreement clause (k = f+1) can fail only at n = 2; at n ≥ 3
// the target checks validity and termination, and runKSet's tests cover
// k-agreement over more values.
type row struct {
	// kind is the ID, or the ID prefix a detector family completes when it
	// ends in ':'.
	kind string
	// fd is the detector family of a row whose ID names none.
	fd string
	// values gives the default @ vector for n locations; nil when the row
	// takes none.
	values func(n int) []int
	maxT   func(n int) int
	procs  func(n int, fd string) ([]ioa.Automaton, error)
	mesh   bool
	envs   func(n int, vals []int) []ioa.Automaton
	// detector composes fd's canonical automaton after envs.
	detector bool
	stop     func(n int) func(*ioa.System, ioa.Action) bool
	check    func(n int, fd string, fair bool) func(trace.T) error
}

func all(n int) int      { return n - 1 }
func majority(n int) int { return (n - 1) / 2 }
func none(int) int       { return 0 }

// mixedProposals fixes deterministic mixed proposals (0,1,0,1,...), so
// validity and agreement are non-trivial.
func mixedProposals(n int) []int {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = i % 2
	}
	return vs
}

func allYes(n int) []int {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = 1
	}
	return vs
}

func proposals(_ int, vals []int) []ioa.Automaton { return system.ConsensusEnvsFixed(vals) }

func mixed(n int, _ []int) []ioa.Automaton { return system.ConsensusEnvsFixed(mixedProposals(n)) }

func broadcasters(n int, _ []int) []ioa.Automaton {
	out := make([]ioa.Automaton, n)
	for i := range out {
		out[i] = problems.NewBroadcasterEnv(ioa.Loc(i), string(rune('a'+i)))
	}
	return out
}

// stopWhenEach ends a run once every location crashed or performed k events
// of the named kind.
func stopWhenEach(k int, kind ioa.Kind, name string) func(n int) func(*ioa.System, ioa.Action) bool {
	return func(n int) func(*ioa.System, ioa.Action) bool {
		stop, _ := system.StopWhenEach(n, k, kind, name)
		return stop
	}
}

var allDecided = stopWhenEach(1, ioa.KindEnvOut, system.ActNameDecide)

func consensusCheck(maxT func(int) int) func(n int, _ string, fair bool) func(trace.T) error {
	return func(n int, _ string, fair bool) func(trace.T) error {
		return consensus.Spec{N: n, F: maxT(n)}.Checker(fair)
	}
}

// renaming is Algorithm 3's renaming of family: D′ is family + "'".
func renaming(family string) selfimpl.Renaming {
	return selfimpl.Renaming{From: family, To: family + "'"}
}

var registry = [...]row{
	{
		kind: "consensus:", values: mixedProposals, maxT: majority,
		procs: consensus.Procs, mesh: true, envs: proposals, detector: true,
		stop: allDecided, check: consensusCheck(majority),
	},
	{
		kind: "smachine:", maxT: all,
		procs: consensus.SProcs, mesh: true, envs: mixed, detector: true,
		stop: allDecided, check: consensusCheck(all),
	},
	{
		kind: "kset", maxT: majority,
		procs: func(n int, _ string) ([]ioa.Automaton, error) { return problems.KSetProcs(n, majority(n)), nil },
		mesh:  true, envs: mixed, stop: allDecided,
		check: func(n int, _ string, fair bool) func(trace.T) error {
			return problems.KSetAgreement{N: n, K: majority(n) + 1}.Checker(fair)
		},
	},
	{
		kind: "nbac", fd: afd.FamilyP, values: allYes, maxT: all,
		procs: problems.NBACProcs, mesh: true,
		envs: func(_ int, vals []int) []ioa.Automaton {
			votes := make([]string, len(vals))
			for i, v := range vals {
				votes[i] = problems.VoteYes
				if v == 0 {
					votes[i] = problems.VoteNo
				}
			}
			return problems.VoterEnvs(votes)
		},
		detector: true, stop: stopWhenEach(1, ioa.KindEnvOut, problems.ActNameOutcome),
		check: func(n int, _ string, fair bool) func(trace.T) error { return problems.NBAC{N: n}.Checker(fair) },
	},
	{
		kind: "trb", fd: afd.FamilyP, maxT: all,
		procs: func(n int, fd string) ([]ioa.Automaton, error) { return problems.TRBProcs(n, 0, fd) },
		mesh:  true,
		envs: func(int, []int) []ioa.Automaton {
			return []ioa.Automaton{problems.NewTRBSenderEnv(0, "payload")}
		},
		detector: true, stop: stopWhenEach(1, ioa.KindEnvOut, problems.ActNameTRBDeliver),
		check: func(n int, _ string, fair bool) func(trace.T) error {
			return problems.TRBSpec{N: n, Sender: 0}.Checker(fair)
		},
	},
	{
		kind: "urb:majority", maxT: majority,
		procs: func(n int, _ string) ([]ioa.Automaton, error) { return problems.URBMajorityProcs(n), nil },
		mesh:  true, envs: broadcasters,
		check: func(n int, _ string, fair bool) func(trace.T) error { return problems.URBSpec{N: n}.Checker(fair) },
	},
	{
		kind: "urb:P", fd: afd.FamilyP, maxT: all,
		procs: problems.URBPerfectProcs, mesh: true, envs: broadcasters, detector: true,
		check: func(n int, _ string, fair bool) func(trace.T) error { return problems.URBSpec{N: n}.Checker(fair) },
	},
	{
		kind: "mutex:", maxT: all,
		procs: problems.MutexProcs, mesh: true, detector: true,
		check: func(n int, _ string, fair bool) func(trace.T) error { return problems.MutexSpec{N: n}.Checker(fair) },
	},
	{
		// The oracle answers queries with the first querier, which every
		// live location must learn of over the channels — so termination is
		// message-dependent.  As specified the reduction tolerates no
		// crashes: a crashed first querier blocks every waiter.
		kind: "participant:consensus", values: mixedProposals, maxT: none,
		procs: func(n int, _ string) ([]ioa.Automaton, error) { return problems.ConsensusViaParticipantProcs(n), nil },
		mesh:  true,
		envs: func(n int, vals []int) []ioa.Automaton {
			return append([]ioa.Automaton{problems.NewParticipantOracle(n)}, system.ConsensusEnvsFixed(vals)...)
		},
		check: func(n int, _ string, fair bool) func(trace.T) error {
			cons := consensus.Spec{N: n, F: 0}.Checker(fair)
			return func(t trace.T) error {
				if err := cons(t); err != nil {
					return err
				}
				return problems.CheckParticipant(t)
			}
		},
	},
	{
		kind: "participant:via-consensus", fd: afd.FamilyOmega, maxT: majority,
		procs: problems.ParticipantViaConsensusProcs, mesh: true,
		envs:     func(n int, _ []int) []ioa.Automaton { return problems.QuerierEnvs(n, 2) },
		detector: true, stop: stopWhenEach(2, ioa.KindFD, problems.FamilyParticipant),
		check: func(n int, _ string, fair bool) func(trace.T) error {
			return func(t trace.T) error {
				if err := problems.CheckParticipant(t); err != nil {
					return err
				}
				if !fair {
					return nil
				}
				stop, done := system.StopWhenEach(n, 2, ioa.KindFD, problems.FamilyParticipant)
				for _, a := range t {
					stop(nil, a)
				}
				if !done() {
					return fmt.Errorf("chaos: a live location has fewer than 2 participant answers")
				}
				return nil
			}
		},
	},
	{
		// Algorithm 3 stacked on fd's automaton; the checker runs the
		// Section-6 proof pipeline and judges the renamed-back outputs with
		// fd's checker (Theorem 13).
		kind: "selfimpl:", maxT: all,
		procs: func(n int, fd string) ([]ioa.Automaton, error) {
			det, err := afd.Lookup(fd, n)
			if err != nil {
				return nil, err
			}
			return append([]ioa.Automaton{det.Automaton(n)}, selfimpl.NewCollection(n, renaming(fd))...), nil
		},
		check: func(n int, fd string, fair bool) func(trace.T) error {
			ren := renaming(fd)
			judge := detectorChecker(fd, n, fair)
			return func(t trace.T) error {
				if _, err := selfimpl.VerifyProof(t, n, ren); err != nil {
					return err
				}
				return judge(ren.InvertTrace(trace.FD(t, ren.To)))
			}
		},
	},
}

// registered is a target built from one registry row: the row, the
// detector family its ID names (rows whose kind ends in ':'), and its @
// values ("" for the row's default).
type registered struct {
	row    *row
	family string
	values string
}

var _ Target = registered{}

// ID implements Target.
func (r registered) ID() string {
	id := r.row.kind + r.family
	if r.values != "" {
		id += "@" + r.values
	}
	return id
}

// MaxT implements Target.
func (r registered) MaxT(n int) int { return r.row.maxT(n) }

func (r registered) fd() string {
	if r.family != "" {
		return r.family
	}
	return r.row.fd
}

// vals returns the run's @ vector at n locations.
func (r registered) vals(n int) ([]int, error) {
	if r.row.values == nil {
		return nil, nil
	}
	if r.values == "" {
		return r.row.values(n), nil
	}
	vs, err := parseValues(r.values)
	if err == nil && len(vs) != n {
		err = fmt.Errorf("chaos: %s lists %d values, valid only at n=%d", r.ID(), len(vs), len(vs))
	}
	return vs, err
}

// Build implements Target.
func (r registered) Build(n int, plan system.FaultPlan, nt *system.Net, lifo bool) (*Built, error) {
	vals, err := r.vals(n)
	if err != nil {
		return nil, err
	}
	pre, err := r.row.procs(n, r.fd())
	if err != nil {
		return nil, err
	}
	var post []ioa.Automaton
	if r.row.envs != nil {
		post = r.row.envs(n, vals)
	}
	if r.row.detector {
		det, err := afd.Lookup(r.fd(), n)
		if err != nil {
			return nil, err
		}
		post = append(post, det.Automaton(n))
	}
	b, err := compose(n, plan, nt, lifo, r.row.mesh, pre, post)
	if err != nil {
		return nil, err
	}
	if r.row.stop != nil {
		b.Stop = r.row.stop(n)
	}
	return b, nil
}

// Checker implements Target: under fair schedules the run is treated as
// complete, enforcing the liveness clauses; under unfair schedules only
// the safety clauses are enforced.
func (r registered) Checker(n int, _ system.FaultPlan, fair bool) func(trace.T) error {
	if _, err := r.vals(n); err != nil {
		return func(trace.T) error { return err }
	}
	return r.row.check(n, r.fd(), fair)
}

// Kinds names every registered target kind by one ID each: the detector,
// gossip and relay kinds and every registry row, a row that takes a
// detector family with one it runs with.
func Kinds() []string {
	return []string{
		"detector:FD-Ω", "gossip:FD-Q>FD-P", "relay:FD-Q>FD-P",
		"consensus:FD-Ω", "smachine:FD-P", "kset", "nbac", "trb", "urb:majority", "urb:P",
		"mutex:FD-◇P", "participant:consensus", "participant:via-consensus", "selfimpl:FD-◇P",
	}
}

// parseValues parses the @ suffix of a target ID: one binary digit per
// location, the only values the consensus environment can propose and the
// two NBAC votes.
func parseValues(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("chaos: empty @ values")
	}
	out := make([]int, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '0' && s[i] != '1' {
			return nil, fmt.Errorf("chaos: @%s: want one binary digit per location", s)
		}
		out[i] = int(s[i] - '0')
	}
	return out, nil
}

// lookup resolves a target ID fixed in code; an unknown one is a
// programming error.
func lookup(id string) Target {
	t, err := ParseTarget(id)
	if err != nil {
		panic(err)
	}
	return t
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

// ParseTarget resolves an artifact target ID back to a Target.  The ID of a
// row that takes values may end in @ and one binary digit per location
// (nbac@101); the target is then valid only at n = their count.
func ParseTarget(id string) (Target, error) {
	base, values, hasValues := strings.Cut(id, "@")
	if hasValues {
		if _, err := parseValues(values); err != nil {
			return nil, err
		}
	}
	for i := range registry {
		r := &registry[i]
		family, ok := strings.CutPrefix(base, r.kind)
		if !ok || (family == "") == strings.HasSuffix(r.kind, ":") {
			continue
		}
		if hasValues && r.values == nil {
			break
		}
		return registered{row: r, family: family, values: values}, nil
	}
	if hasValues {
		return nil, fmt.Errorf("chaos: target %q takes no @ values", base)
	}
	switch {
	case strings.HasPrefix(id, "detector:"):
		return DetectorTarget{Family: strings.TrimPrefix(id, "detector:")}, nil
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
	default:
		return nil, fmt.Errorf("chaos: unknown target %q", id)
	}
}
