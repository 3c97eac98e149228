package problems

import (
	"fmt"
	"maps"
	"strings"

	"repro/internal/ioa"
	"repro/internal/system"
)

// KSetMachine solves (f+1)-set agreement with NO failure detector in a
// purely asynchronous system with at most f crashes: broadcast the
// proposal, wait for n−f proposals (own included), decide the minimum
// received.  At most f+1 distinct minima arise, so the algorithm solves
// k-set agreement for every k > f — the classical positive counterpart of
// the consensus impossibility, and the reason k-set agreement appears in
// the paper's §7.3 list of bounded problems with interesting weakest
// detectors (anti-Ω et al.).
type KSetMachine struct {
	system.NopMachine
	n, f    int
	self    ioa.Loc
	vals    map[ioa.Loc]string
	decided bool
	val     string
}

var _ system.Machine = (*KSetMachine)(nil)

// NewKSetMachine returns the machine for location self of n tolerating f
// crashes.
func NewKSetMachine(n, f int, self ioa.Loc) *KSetMachine {
	return &KSetMachine{n: n, f: f, self: self, vals: make(map[ioa.Loc]string)}
}

// KSetProcs returns the distributed algorithm.
func KSetProcs(n, f int) []ioa.Automaton {
	out := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		m := NewKSetMachine(n, f, ioa.Loc(i))
		out[i] = system.NewProc("kset", ioa.Loc(i), n, m, nil, []string{system.ActNamePropose})
	}
	return out
}

// OnEnvInput implements system.Machine.
func (m *KSetMachine) OnEnvInput(name, payload string, e *system.Effects) {
	if name != system.ActNamePropose || m.decided {
		return
	}
	if _, ok := m.vals[m.self]; ok {
		return
	}
	m.vals[m.self] = payload
	e.Broadcast(m.n, "K|"+payload)
	m.maybeDecide(e)
}

// OnReceive implements system.Machine.
func (m *KSetMachine) OnReceive(from ioa.Loc, msg string, e *system.Effects) {
	if m.decided || !strings.HasPrefix(msg, "K|") {
		return
	}
	m.vals[from] = msg[2:]
	m.maybeDecide(e)
}

func (m *KSetMachine) maybeDecide(e *system.Effects) {
	if m.decided || len(m.vals) < m.n-m.f {
		return
	}
	if _, proposed := m.vals[m.self]; !proposed {
		return // decide only after contributing our own value
	}
	min := ""
	for _, v := range m.vals {
		if min == "" || v < min {
			min = v
		}
	}
	m.decided = true
	m.val = min
	e.Output(system.ActNameDecide, min)
}

// Decided reports the decision, if any.
func (m *KSetMachine) Decided() (string, bool) { return m.val, m.decided }

// Clone implements system.Machine.
func (m *KSetMachine) Clone() system.Machine {
	c := &KSetMachine{n: m.n, f: m.f, self: m.self, decided: m.decided, val: m.val}
	c.vals = maps.Clone(m.vals)
	return c
}

// AppendEncode implements system.Machine.
func (m *KSetMachine) AppendEncode(dst []byte) []byte {
	dst = fmt.Appendf(dst, "KS%v|d%t:%s|", m.self, m.decided, m.val)
	for i := 0; i < m.n; i++ {
		if v, ok := m.vals[ioa.Loc(i)]; ok {
			dst = fmt.Appendf(dst, "%d=%s;", i, v)
		}
	}
	return dst
}
