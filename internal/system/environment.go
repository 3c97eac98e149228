package system

import (
	"fmt"

	"repro/internal/ioa"
)

// ActNamePropose and ActNameDecide are the action families of the
// f-crash-tolerant binary consensus problem (Section 9.1).
const (
	ActNamePropose = "propose"
	ActNameDecide  = "decide"
)

// ConsensusEnv is the environment automaton EC,i of Algorithm 4 (Section
// 9.2), one per location.  It has output actions propose(0)i and propose(1)i
// (one task each), input actions decide(0)i, decide(1)i and crashi, and a
// single stop flag: any propose or a crash permanently disables both propose
// actions.  The composition of all ConsensusEnv automata is the well-formed
// environment EC (Theorem 44).
//
// Allow restricts which values may be proposed at this location.  Algorithm
// 4 enables both; a run with predetermined inputs enables exactly one, which
// preserves well-formedness (the set of fair traces shrinks).
type ConsensusEnv struct {
	id    ioa.Loc
	allow [2]bool
	stop  bool
}

var _ ioa.Automaton = (*ConsensusEnv)(nil)
var _ ioa.Signatured = (*ConsensusEnv)(nil)

// NewConsensusEnv returns EC,i with both propose values enabled.
func NewConsensusEnv(i ioa.Loc) *ConsensusEnv {
	return &ConsensusEnv{id: i, allow: [2]bool{true, true}}
}

// NewConsensusEnvFixed returns EC,i that proposes exactly v.
func NewConsensusEnvFixed(i ioa.Loc, v int) *ConsensusEnv {
	e := &ConsensusEnv{id: i}
	e.allow[v] = true
	return e
}

// Name implements ioa.Automaton.
func (e *ConsensusEnv) Name() string { return fmt.Sprintf("env[%v]", e.id) }

// Accepts implements ioa.Automaton: decide(b)i and crashi.
func (e *ConsensusEnv) Accepts(a ioa.Action) bool {
	if a.Loc != e.id {
		return false
	}
	return (a.Kind == ioa.KindCrash && a.Name == ioa.NameCrash) ||
		(a.Kind == ioa.KindEnvOut && a.Name == ActNameDecide)
}

// SignatureKeys implements ioa.Signatured: crashi and decide(·)i.
func (e *ConsensusEnv) SignatureKeys() []ioa.SigKey {
	return ioa.KeysOf(ioa.Crash(e.id), ioa.EnvOutput(ActNameDecide, e.id, ""))
}

// Input implements ioa.Automaton.
func (e *ConsensusEnv) Input(a ioa.Action) {
	if a.Kind == ioa.KindCrash {
		e.stop = true
	}
	// decide(b)i has no effect (Algorithm 4).
}

// Quiescent implements ioa.QuiescentReporter: once stopped (proposed or
// crashed) the environment never fires again, and every input it accepts
// leaves its state unchanged (crash is idempotent, decide is a no-op).
func (e *ConsensusEnv) Quiescent() bool { return e.stop }

// CanSend implements ioa.SendProspector: environments never emit send
// actions under any input sequence (their signature has none).
func (e *ConsensusEnv) CanSend() bool { return false }

// PendingProspects implements ioa.PendingProspect: the still-allowed propose
// outputs, none once stopped.
func (e *ConsensusEnv) PendingProspects(yield func(ioa.Action) bool) {
	for t := 0; t < 2; t++ {
		if a, ok := e.Enabled(t); ok && !yield(a) {
			return
		}
	}
}

// NumTasks implements ioa.Automaton: Envi,0 and Envi,1.
func (e *ConsensusEnv) NumTasks() int { return 2 }

// TaskLabel implements ioa.Automaton.
func (e *ConsensusEnv) TaskLabel(t int) string { return fmt.Sprintf("Env_%v,%d", e.id, t) }

// Enabled implements ioa.Automaton.
func (e *ConsensusEnv) Enabled(t int) (ioa.Action, bool) {
	if e.stop || !e.allow[t] {
		return ioa.Action{}, false
	}
	return ioa.EnvInput(ActNamePropose, e.id, fmt.Sprintf("%d", t)), true
}

// Fire implements ioa.Automaton: any propose sets stop (Proposition 43).
func (e *ConsensusEnv) Fire(ioa.Action) { e.stop = true }

// Clone implements ioa.Automaton.
func (e *ConsensusEnv) Clone() ioa.Automaton {
	c := *e
	return &c
}

// ConsensusEnvs returns the n per-location environment automata whose
// composition is EC.
func ConsensusEnvs(n int) []ioa.Automaton {
	out := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		out[i] = NewConsensusEnv(ioa.Loc(i))
	}
	return out
}

// ConsensusEnvsFixed returns environment automata proposing vals[i] at i.
func ConsensusEnvsFixed(vals []int) []ioa.Automaton {
	out := make([]ioa.Automaton, len(vals))
	for i, v := range vals {
		out[i] = NewConsensusEnvFixed(ioa.Loc(i), v)
	}
	return out
}

// StopWhenEach returns a scheduler stop condition that ends a run of n
// locations once every location has crashed or performed k events of the
// given kind and name, and the predicate it tests on the events seen so
// far.  A location counts as faulty only once its crash event actually
// fires: a planned crash the gate never releases leaves the location live,
// and the run then waits for its events too.
func StopWhenEach(n, k int, kind ioa.Kind, name string) (stop func(*ioa.System, ioa.Action) bool, done func() bool) {
	seen := make([]int, n) // matching events per location; k once crashed
	done = func() bool {
		for _, c := range seen {
			if c < k {
				return false
			}
		}
		return true
	}
	stop = func(_ *ioa.System, last ioa.Action) bool {
		crash := last.Kind == ioa.KindCrash
		if !crash && (last.Kind != kind || last.Name != name) {
			return false
		}
		if uint(last.Loc) < uint(n) {
			if crash {
				seen[last.Loc] = k
			} else {
				seen[last.Loc]++
			}
		}
		return done()
	}
	return stop, done
}
