package problems

import (
	"fmt"
	"maps"

	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/trace"
)

// This file implements Section 10.1: the query-based *participant failure
// detector*, which is representative for consensus in the query-based
// universe — demonstrating that query-based detectors can leak information
// about events other than crashes (here: participation), which is exactly
// why the paper argues for unilateral AFDs.
//
// The participant detector answers every query with one fixed location ID
// and guarantees the answered location has queried at least once.  Queries
// are modeled as environment inputs (they originate outside the detector);
// answers are FD outputs of the FamilyParticipant family.

// Action families of the participant detector.
const (
	FamilyParticipant = "FD-participant"
	ActNameQuery      = "fd-query"
)

// Query returns the query action at location i.
func Query(i ioa.Loc) ioa.Action { return ioa.EnvInput(ActNameQuery, i, "") }

// NewQuerierEnv returns the environment issuing `queries` detector queries
// at id and absorbing the answers: the "external world" of the query-based
// interaction mode.
func NewQuerierEnv(id ioa.Loc, queries int) ioa.Automaton {
	return newEnv("querier", "query", Query(id), queries, ioa.KindFD, FamilyParticipant)
}

// QuerierEnvs returns one querier per location.
func QuerierEnvs(n, queries int) []ioa.Automaton {
	out := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		out[i] = NewQuerierEnv(ioa.Loc(i), queries)
	}
	return out
}

// ParticipantOracle is the detector itself as a single automaton: the first
// querier becomes the fixed answer; every query enqueues one response at the
// querying location.
type ParticipantOracle struct {
	n       int
	chosen  ioa.Loc
	pending []ioa.Loc // locations owed a response, FIFO
	crashed ioa.LocSet
}

var _ ioa.Automaton = (*ParticipantOracle)(nil)

// NewParticipantOracle returns the oracle for n locations.
func NewParticipantOracle(n int) *ParticipantOracle {
	return &ParticipantOracle{n: n, chosen: ioa.NoLoc}
}

// Name implements ioa.Automaton.
func (o *ParticipantOracle) Name() string { return "participant-oracle" }

// Accepts implements ioa.Automaton: queries and crashes.
func (o *ParticipantOracle) Accepts(a ioa.Action) bool {
	return a.Kind == ioa.KindCrash || (a.Kind == ioa.KindEnvIn && a.Name == ActNameQuery)
}

// Input implements ioa.Automaton.
func (o *ParticipantOracle) Input(a ioa.Action) {
	if a.Kind == ioa.KindCrash {
		o.crashed.Add(a.Loc)
	} else {
		if o.chosen == ioa.NoLoc {
			o.chosen = a.Loc // the first querier has certainly participated
		}
		o.pending = append(o.pending, a.Loc)
	}
	o.pending = dropCrashed(o.pending, o.crashed)
}

// NumTasks implements ioa.Automaton.
func (o *ParticipantOracle) NumTasks() int { return 1 }

// TaskLabel implements ioa.Automaton.
func (o *ParticipantOracle) TaskLabel(int) string { return "respond" }

// Enabled implements ioa.Automaton: answer the oldest pending query, whose
// querier Input and Fire keep alive.
func (o *ParticipantOracle) Enabled(int) (ioa.Action, bool) {
	if len(o.pending) == 0 {
		return ioa.Action{}, false
	}
	return ioa.FDOutput(FamilyParticipant, o.pending[0], ioa.EncodeLoc(o.chosen)), true
}

// Fire implements ioa.Automaton.
func (o *ParticipantOracle) Fire(ioa.Action) { o.pending = dropCrashed(o.pending[1:], o.crashed) }

// Clone implements ioa.Automaton.
func (o *ParticipantOracle) Clone() ioa.Automaton {
	c := &ParticipantOracle{n: o.n, chosen: o.chosen, crashed: o.crashed}
	c.pending = append([]ioa.Loc(nil), o.pending...)
	return c
}

// AppendEncode implements ioa.Automaton.
func (o *ParticipantOracle) AppendEncode(dst []byte) []byte {
	dst = fmt.Appendf(dst, "PO%v|", o.chosen)
	for _, l := range o.pending {
		dst = append(l.AppendTo(dst), ',')
	}
	for i := ioa.Loc(0); int(i) < o.n; i++ {
		if o.crashed.Has(i) {
			dst = append(dst, 'x')
		} else {
			dst = append(dst, '.')
		}
	}
	return dst
}

// CheckParticipant verifies the participant-detector guarantee on a trace:
// every response carries the same location ID, and that location issued a
// query somewhere in the trace.
func CheckParticipant(t trace.T) error {
	var answer string
	var queried ioa.LocSet
	for _, a := range t {
		switch {
		case a.Kind == ioa.KindEnvIn && a.Name == ActNameQuery:
			queried.Add(a.Loc)
		case a.Kind == ioa.KindFD && a.Name == FamilyParticipant:
			if answer == "" {
				answer = a.Payload
			} else if a.Payload != answer {
				return fmt.Errorf("problems: participant answers %s and %s differ", answer, a.Payload)
			}
		}
	}
	if answer == "" {
		return nil
	}
	l, err := ioa.DecodeLoc(answer)
	if err != nil {
		return fmt.Errorf("problems: malformed participant answer %q: %v", answer, err)
	}
	if !queried.Has(l) {
		return fmt.Errorf("problems: answered location %v never queried (participation leak broken)", l)
	}
	return nil
}

// consensusViaParticipant is the Section-10.1 reduction "solve consensus
// using the participant detector": broadcast the proposal, query, and decide
// on the proposal of the answered location once it arrives.
type consensusViaParticipant struct {
	system.NopMachine
	n       int
	self    ioa.Loc
	props   map[ioa.Loc]string
	waiting ioa.Loc // answered location we are waiting on; NoLoc before
	decided bool
}

// ConsensusViaParticipantProcs returns the reduction's process automata.
func ConsensusViaParticipantProcs(n int) []ioa.Automaton {
	out := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		m := &consensusViaParticipant{
			n: n, self: ioa.Loc(i),
			props: make(map[ioa.Loc]string), waiting: ioa.NoLoc,
		}
		out[i] = system.NewProc("cvp", ioa.Loc(i), n, m,
			[]string{FamilyParticipant}, []string{system.ActNamePropose})
	}
	return out
}

func (m *consensusViaParticipant) OnEnvInput(name, payload string, e *system.Effects) {
	if name != system.ActNamePropose {
		return
	}
	m.props[m.self] = payload
	e.Broadcast(m.n, payload)
	// Query only after the proposal is out: the detector's answer is then
	// guaranteed to name a location whose proposal is in flight to all.
	e.Emit(Query(m.self))
}

func (m *consensusViaParticipant) OnReceive(from ioa.Loc, msg string, e *system.Effects) {
	m.props[from] = msg
	m.maybeDecide(e)
}

func (m *consensusViaParticipant) OnFD(a ioa.Action, e *system.Effects) {
	l, err := ioa.DecodeLoc(a.Payload)
	if err != nil {
		return
	}
	m.waiting = l
	m.maybeDecide(e)
}

func (m *consensusViaParticipant) maybeDecide(e *system.Effects) {
	if m.decided || m.waiting == ioa.NoLoc {
		return
	}
	if v, ok := m.props[m.waiting]; ok {
		m.decided = true
		e.Output(system.ActNameDecide, v)
	}
}

func (m *consensusViaParticipant) Clone() system.Machine {
	c := &consensusViaParticipant{n: m.n, self: m.self, waiting: m.waiting, decided: m.decided}
	c.props = maps.Clone(m.props)
	return c
}

func (m *consensusViaParticipant) AppendEncode(dst []byte) []byte {
	dst = fmt.Appendf(dst, "CVP%v|w%v|d%t|", m.self, m.waiting, m.decided)
	for i := 0; i < m.n; i++ {
		if v, ok := m.props[ioa.Loc(i)]; ok {
			dst = fmt.Appendf(dst, "%d=%s;", i, v)
		}
	}
	return dst
}

// participantViaConsensus is the converse reduction: answer queries with the
// decision of a consensus instance in which each queried location proposes
// its own ID.  The hosted consensus machine is the CT algorithm with an Ω
// suspector, so the composition needs the Ω detector and channels.
type participantViaConsensus struct {
	ct      *consensus.CTMachine
	self    ioa.Loc
	pending int
	answer  string
}

// ParticipantViaConsensusProcs returns the reduction's process automata,
// each hosting a CT consensus machine proposing its own location ID.
func ParticipantViaConsensusProcs(n int, fdFamily string) ([]ioa.Automaton, error) {
	out := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		susp, err := consensus.SuspectorFor(fdFamily)
		if err != nil {
			return nil, err
		}
		m := &participantViaConsensus{
			ct:   consensus.NewCTMachine(n, ioa.Loc(i), susp),
			self: ioa.Loc(i),
		}
		out[i] = system.NewProc("pvc", ioa.Loc(i), n, m,
			[]string{fdFamily}, []string{ActNameQuery})
	}
	return out, nil
}

func (m *participantViaConsensus) OnStart(*system.Effects) {}

func (m *participantViaConsensus) OnEnvInput(name, payload string, e *system.Effects) {
	if name != ActNameQuery {
		return
	}
	m.pending++
	// First query: enter the consensus with our own ID as proposal.
	m.host(e, func(inner *system.Effects) {
		m.ct.OnEnvInput(system.ActNamePropose, ioa.EncodeLoc(m.self), inner)
	})
}

func (m *participantViaConsensus) OnReceive(from ioa.Loc, msg string, e *system.Effects) {
	m.host(e, func(inner *system.Effects) { m.ct.OnReceive(from, msg, inner) })
}

func (m *participantViaConsensus) OnFD(a ioa.Action, e *system.Effects) {
	m.host(e, func(inner *system.Effects) { m.ct.OnFD(a, inner) })
}

// host runs the hosted consensus; its decision surfaces as the answer to
// every pending query instead of as a decide output.
func (m *participantViaConsensus) host(e *system.Effects, f func(*system.Effects)) {
	if v, ok := hostConsensus(m.self, m.ct, e, f); ok {
		m.answer = v
	}
	if m.answer == "" {
		return
	}
	for ; m.pending > 0; m.pending-- {
		e.OutputFD(FamilyParticipant, m.answer)
	}
}

func (m *participantViaConsensus) Clone() system.Machine {
	return &participantViaConsensus{
		ct:      m.ct.Clone().(*consensus.CTMachine),
		self:    m.self,
		pending: m.pending,
		answer:  m.answer,
	}
}

func (m *participantViaConsensus) AppendEncode(dst []byte) []byte {
	return m.ct.AppendEncode(fmt.Appendf(dst, "PVC%v|p%d|a%s|", m.self, m.pending, m.answer))
}
