package problems

import (
	"fmt"
	"maps"
	"strings"

	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/system"
)

// NBACMachine solves non-blocking atomic commit using the perfect detector
// P, the construction behind the §1.1 discussion of NBAC's weakest
// detectors [17,18]: broadcast the vote; wait, for every location, for its
// vote or its suspicion (P's strong accuracy makes suspicion proof of
// crash); propose commit to an embedded consensus iff all n yes-votes
// arrived, abort otherwise; adopt the consensus decision as the outcome.
//
// With P: commit ⇒ some location saw n yes votes (consensus validity);
// all-yes and crash-free ⇒ every location proposes commit ⇒ the decision is
// commit (no gratuitous abort); agreement and termination come from the
// embedded consensus (the CT96 S-algorithm, which P drives for f ≤ n−1).
type NBACMachine struct {
	n    int
	self ioa.Loc
	susp *consensus.SetSuspector
	ct   *consensus.SMachine

	voted    bool
	votes    map[ioa.Loc]string
	proposed bool
	done     bool
}

var _ system.Machine = (*NBACMachine)(nil)

// NewNBACMachine returns the NBAC machine for location self of n.
func NewNBACMachine(n int, self ioa.Loc, family string) (*NBACMachine, error) {
	set, err := setSuspector("NBAC", family)
	if err != nil {
		return nil, err
	}
	// The embedded consensus shares the detector stream through its own
	// suspector.
	return &NBACMachine{
		n: n, self: self, susp: set,
		ct:    consensus.NewSMachine(n, self, consensus.NewSetSuspector()),
		votes: make(map[ioa.Loc]string),
	}, nil
}

// NBACProcs returns the distributed NBAC algorithm over the given
// suspicion-set family (use the perfect detector).
func NBACProcs(n int, family string) ([]ioa.Automaton, error) {
	out := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		m, err := NewNBACMachine(n, ioa.Loc(i), family)
		if err != nil {
			return nil, err
		}
		out[i] = system.NewProc("nbac", ioa.Loc(i), n, m, []string{family}, []string{ActNameVote})
	}
	return out, nil
}

// OnStart implements system.Machine.
func (m *NBACMachine) OnStart(*system.Effects) {}

// OnEnvInput implements system.Machine: the vote arrives.
func (m *NBACMachine) OnEnvInput(name, payload string, e *system.Effects) {
	if name != ActNameVote || m.voted {
		return
	}
	m.voted = true
	m.votes[m.self] = payload
	e.Broadcast(m.n, "NV|"+payload)
	m.maybePropose(e)
}

// OnFD implements system.Machine: refresh both layers' suspicions.
func (m *NBACMachine) OnFD(a ioa.Action, e *system.Effects) {
	m.susp.Update(a)
	m.host(e, func(inner *system.Effects) { m.ct.OnFD(a, inner) })
	m.maybePropose(e)
}

// OnReceive implements system.Machine: route vote messages to the vote
// layer and everything else to the embedded consensus.
func (m *NBACMachine) OnReceive(from ioa.Loc, msg string, e *system.Effects) {
	if strings.HasPrefix(msg, "NV|") {
		m.votes[from] = msg[3:]
		m.maybePropose(e)
		return
	}
	m.host(e, func(inner *system.Effects) { m.ct.OnReceive(from, msg, inner) })
}

// maybePropose checks the vote-collection wait condition: every location
// has voted or is suspected.
func (m *NBACMachine) maybePropose(e *system.Effects) {
	if m.proposed || !m.voted {
		return
	}
	allYes := true
	for q := 0; q < m.n; q++ {
		l := ioa.Loc(q)
		v, ok := m.votes[l]
		if !ok {
			if !m.susp.Suspects(l) {
				return // still waiting on l
			}
			allYes = false // a crashed location forces abort
			continue
		}
		if v != VoteYes {
			allYes = false
		}
	}
	m.proposed = true
	proposal := "a"
	if allYes {
		proposal = "c"
	}
	m.host(e, func(inner *system.Effects) {
		m.ct.OnEnvInput(system.ActNamePropose, proposal, inner)
	})
}

// host runs the embedded consensus and turns its decision into the NBAC
// outcome.
func (m *NBACMachine) host(e *system.Effects, f func(*system.Effects)) {
	if v, ok := hostConsensus(m.self, m.ct, e, f); ok && !m.done {
		m.done = true
		outcome := OutcomeAbort
		if v == "c" {
			outcome = OutcomeCommit
		}
		e.Output(ActNameOutcome, outcome)
	}
}

// Clone implements system.Machine.
func (m *NBACMachine) Clone() system.Machine {
	c := &NBACMachine{
		n: m.n, self: m.self,
		susp:  m.susp.Clone().(*consensus.SetSuspector),
		ct:    m.ct.Clone().(*consensus.SMachine),
		voted: m.voted, proposed: m.proposed, done: m.done,
	}
	c.votes = maps.Clone(m.votes)
	return c
}

// AppendEncode implements system.Machine.
func (m *NBACMachine) AppendEncode(dst []byte) []byte {
	dst = fmt.Appendf(dst, "NB%v|v%t|p%t|d%t|", m.self, m.voted, m.proposed, m.done)
	for i := 0; i < m.n; i++ {
		if v, ok := m.votes[ioa.Loc(i)]; ok {
			dst = fmt.Appendf(dst, "%d=%s;", i, v)
		}
	}
	dst = m.susp.AppendEncode(append(dst, '|'))
	return m.ct.AppendEncode(append(dst, '|'))
}

// NewVoterEnv returns the NBAC environment at id: it casts vote v once and
// absorbs the outcome; a crash disables the vote.
func NewVoterEnv(id ioa.Loc, v string) ioa.Automaton {
	return newEnv("voter", "vote", ioa.EnvInput(ActNameVote, id, v), 1, ioa.KindEnvOut, ActNameOutcome)
}

// VoterEnvs returns one voter per location with the given votes.
func VoterEnvs(votes []string) []ioa.Automaton {
	out := make([]ioa.Automaton, len(votes))
	for i, v := range votes {
		out[i] = NewVoterEnv(ioa.Loc(i), v)
	}
	return out
}
