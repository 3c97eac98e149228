package afd

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// This file covers Section 3.4: failure detectors that are *not* AFDs.
//
// The Marabout detector [14] always outputs exactly the set of locations
// that are faulty in the whole trace — including before any of them has
// crashed.  No automaton whose only inputs are the crash events can generate
// such traces, because in the I/O-automata framework it would have to
// predict the future fault pattern.  We provide the specification checker
// and a deliberately *non-causal* oracle that is constructed from the fault
// plan ahead of time; the oracle exists only to exercise the checker and to
// make the paper's point executable — see TestMaraboutRequiresClairvoyance.
//
// The detector Dk [3], which is accurate only about crashes occurring after
// real time k, cannot even be *specified* here: the framework has no real
// time, which is exactly the paper's argument.  It appears only in
// documentation.

// FamilyMarabout is the output family of the Marabout detector.
const FamilyMarabout = "FD-Marabout"

// CheckMarabout verifies the Marabout specification on a finite trace: every
// output event's payload equals faulty(t) — the final fault set — even for
// outputs occurring before the crashes.
func CheckMarabout(t trace.T, n int, w Window) error {
	if err := CheckValidity(t, n, FamilyMarabout, w); err != nil {
		return err
	}
	want := trace.Faulty(t).String()
	for _, a := range t {
		if a.Kind == ioa.KindFD && a.Name == FamilyMarabout && a.Payload != want {
			return fmt.Errorf("afd: Marabout output %v differs from final fault set %s", a, want)
		}
	}
	return nil
}

// MaraboutOracle is the non-causal generator: it is told the complete fault
// pattern at construction time and outputs it from the start.  It is not a
// failure-detector automaton in the paper's sense — its output function
// reads the future — and it exists to demonstrate Section 3.4: removing the
// clairvoyance (using crashset instead, as any honest automaton must) makes
// the Marabout checker reject as soon as a crash occurs after the first
// output.
func MaraboutOracle(n int, willCrash []ioa.Loc) ioa.Automaton {
	var future ioa.LocSet
	for _, l := range willCrash {
		future.Add(l)
	}
	payload := future.String()
	return NewGenerator(FamilyMarabout, n, func(*GenState, ioa.Loc) string {
		return payload
	}).StablePayload(0)
}

// MaraboutHonest is the best causal attempt at Marabout: output crashset.
// Its traces violate CheckMarabout whenever a crash follows an output,
// demonstrating non-implementability.
func MaraboutHonest(n int) ioa.Automaton { return suspicionGenerator(FamilyMarabout, n, 0) }

// Slanderer is a deliberately broken perfect detector: its automaton
// outputs crashset ∪ {Scapegoat}, accusing the scapegoat location before
// (and regardless of whether) it crashes.  While the scapegoat is live this
// violates P's perpetual strong accuracy — a safety clause, refutable on
// any finite prefix — so a sound checker must flag every run in which an
// output fires before the scapegoat's crash.  It exists as the chaos
// harness's positive control: a sweep that does not flag the Slanderer is
// not checking anything.
type Slanderer struct {
	// Scapegoat is the wrongly suspected location (default 0).
	Scapegoat ioa.Loc
}

var _ Detector = Slanderer{}

// Family implements Detector: the Slanderer masquerades as P.
func (Slanderer) Family() string { return FamilyP }

// Automaton implements Detector: output crashset ∪ {Scapegoat}.
func (d Slanderer) Automaton(n int) ioa.Automaton {
	return NewGenerator(FamilyP, n, func(st *GenState, _ ioa.Loc) string {
		set := st.Crashed
		set.Add(d.Scapegoat)
		return set.String()
	}).StablePayload(0)
}

// Check implements Detector with the zoo's honest P row — the broken part
// is the automaton, not the checker.
func (d Slanderer) Check(t trace.T, n int, w Window) error {
	return Standard(n)[FamilyP].Check(t, n, w)
}
