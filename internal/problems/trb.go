package problems

import (
	"fmt"
	"strings"

	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/trace"
)

// Terminating Reliable Broadcast (TRB), one of Section 7.3's examples of a
// bounded problem.  A designated sender s may broadcast one value; every
// live location must deliver either that value or the distinguished "sender
// faulty" verdict SF, all agreeing:
//
//	termination – every live location delivers exactly once;
//	agreement   – all deliveries carry the same payload;
//	validity    – if the sender is live, the delivered payload is its value;
//	integrity   – SF may be delivered only if the sender is faulty.
//
// TRB is solvable with P (strong accuracy makes "suspect the sender" proof
// of crash): each location waits for the sender's value or the sender's
// suspicion, then runs a consensus (the CT96 S-algorithm, hosted like
// NBAC's) on "value or SF" and delivers the decision.
//
// TRB is bounded (one output per location): its traces feed the Section-7.3
// classifiers, in contrast to the long-lived ◇-mutex.

// TRB action names and the sender-faulty verdict.
const (
	ActNameTRBBcast   = "trb-bcast"
	ActNameTRBDeliver = "trb-deliver"
	TRBSenderFaulty   = "SF"
)

// TRBSpec checks TRB traces for a designated sender.
type TRBSpec struct {
	N      int
	Sender ioa.Loc
}

// Check verifies a finite TRB trace over bcast/deliver/crash events.
func (s TRBSpec) Check(t trace.T, complete bool) error {
	crashed := make(map[ioa.Loc]bool)
	var sent string
	hasSent := false
	delivered := make(map[ioa.Loc]string)
	// The first delivery in trace order fixes the verdict; disagree is
	// the first later delivery that differs from it (-1: none).
	var verdict string
	first, disagree := ioa.Loc(-1), -1
	for i, a := range t {
		switch {
		case a.Kind == ioa.KindCrash:
			crashed[a.Loc] = true
		case a.Kind == ioa.KindEnvIn && a.Name == ActNameTRBBcast:
			if a.Loc != s.Sender {
				return fmt.Errorf("problems: broadcast at %v, but the sender is %v", a.Loc, s.Sender)
			}
			if hasSent {
				return fmt.Errorf("problems: sender broadcast twice")
			}
			sent, hasSent = a.Payload, true
		case a.Kind == ioa.KindEnvOut && a.Name == ActNameTRBDeliver:
			if crashed[a.Loc] {
				return fmt.Errorf("problems: deliver at %v after crash", a.Loc)
			}
			if _, dup := delivered[a.Loc]; dup {
				return fmt.Errorf("problems: %v delivered twice (termination)", a.Loc)
			}
			delivered[a.Loc] = a.Payload
			switch {
			case len(delivered) == 1:
				verdict, first = a.Payload, a.Loc
			case a.Payload != verdict && disagree < 0:
				disagree = i
			}
		}
	}
	if disagree >= 0 {
		a := t[disagree]
		return fmt.Errorf("problems: deliveries disagree (%q at %v vs %q at %v) (agreement)",
			a.Payload, a.Loc, verdict, first)
	}
	if len(delivered) > 0 {
		// Integrity and validity.
		if verdict == TRBSenderFaulty {
			if !crashed[s.Sender] && complete {
				return fmt.Errorf("problems: SF delivered but the sender is live (integrity)")
			}
		} else if !hasSent || verdict != sent {
			return fmt.Errorf("problems: delivered %q, sender broadcast %q (validity)", verdict, sent)
		}
	}
	if complete {
		for l := ioa.Loc(0); int(l) < s.N; l++ {
			if _, ok := delivered[l]; !ok && !crashed[l] {
				return fmt.Errorf("problems: live location %v never delivered (termination)", l)
			}
		}
	}
	return nil
}

// trbMachine hosts the wait-then-consensus construction.
type trbMachine struct {
	n      int
	self   ioa.Loc
	sender ioa.Loc
	susp   *consensus.SetSuspector
	ct     *consensus.SMachine

	// got is the sender's value once known ("" before); senderBcast marks
	// that our own location is the sender and has broadcast.
	got      string
	hasGot   bool
	proposed bool
	done     bool
}

var _ system.Machine = (*trbMachine)(nil)

// TRBProcs returns the P-based TRB algorithm with the given sender.
func TRBProcs(n int, sender ioa.Loc, family string) ([]ioa.Automaton, error) {
	out := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		set, err := setSuspector("TRB", family)
		if err != nil {
			return nil, err
		}
		m := &trbMachine{
			n: n, self: ioa.Loc(i), sender: sender, susp: set,
			ct: consensus.NewSMachine(n, ioa.Loc(i), consensus.NewSetSuspector()),
		}
		out[i] = system.NewProc("trb", ioa.Loc(i), n, m, []string{family}, []string{ActNameTRBBcast})
	}
	return out, nil
}

// OnStart implements system.Machine.
func (m *trbMachine) OnStart(*system.Effects) {}

// OnEnvInput implements system.Machine: the sender's broadcast.
func (m *trbMachine) OnEnvInput(name, payload string, e *system.Effects) {
	if name != ActNameTRBBcast || m.self != m.sender || m.hasGot {
		return
	}
	m.got, m.hasGot = payload, true
	e.Broadcast(m.n, "V|"+payload)
	m.maybePropose(e)
}

// OnReceive implements system.Machine.
func (m *trbMachine) OnReceive(from ioa.Loc, msg string, e *system.Effects) {
	if strings.HasPrefix(msg, "V|") {
		if !m.hasGot {
			m.got, m.hasGot = msg[2:], true
		}
		m.maybePropose(e)
		return
	}
	m.host(e, func(inner *system.Effects) { m.ct.OnReceive(from, msg, inner) })
}

// OnFD implements system.Machine.
func (m *trbMachine) OnFD(a ioa.Action, e *system.Effects) {
	m.susp.Update(a)
	m.host(e, func(inner *system.Effects) { m.ct.OnFD(a, inner) })
	m.maybePropose(e)
}

// maybePropose completes the phase-1 wait: the sender's value has arrived,
// or the sender is suspected (with P: has crashed).
func (m *trbMachine) maybePropose(e *system.Effects) {
	if m.proposed {
		return
	}
	proposal := ""
	switch {
	case m.hasGot:
		proposal = m.got
	case m.susp.Suspects(m.sender):
		proposal = TRBSenderFaulty
	default:
		return
	}
	m.proposed = true
	m.host(e, func(inner *system.Effects) {
		m.ct.OnEnvInput(system.ActNamePropose, proposal, inner)
	})
}

// host runs the embedded consensus; its decision becomes the TRB delivery.
func (m *trbMachine) host(e *system.Effects, f func(*system.Effects)) {
	if v, ok := hostConsensus(m.self, m.ct, e, f); ok && !m.done {
		m.done = true
		e.Output(ActNameTRBDeliver, v)
	}
}

// Clone implements system.Machine.
func (m *trbMachine) Clone() system.Machine {
	return &trbMachine{
		n: m.n, self: m.self, sender: m.sender,
		susp: m.susp.Clone().(*consensus.SetSuspector),
		ct:   m.ct.Clone().(*consensus.SMachine),
		got:  m.got, hasGot: m.hasGot, proposed: m.proposed, done: m.done,
	}
}

// Encode implements system.Machine.
func (m *trbMachine) Encode() string {
	return fmt.Sprintf("TR%v|g%t:%s|p%t|d%t|%s|%s",
		m.self, m.hasGot, m.got, m.proposed, m.done, m.susp.Encode(), m.ct.Encode())
}

// NewTRBSenderEnv returns the sender environment: one broadcast of value at
// id, absorbing the delivery there.
func NewTRBSenderEnv(id ioa.Loc, value string) ioa.Automaton {
	return newEnv("trbsender", "trb-bcast", ioa.EnvInput(ActNameTRBBcast, id, value), 1, ioa.KindEnvOut, ActNameTRBDeliver)
}
