package afd

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// FamilyOmega is the output action family of the Ω AFD.
const FamilyOmega = "FD-Ω"

// Omega is the leader election oracle Ω of Section 3.3: it continually
// outputs a location ID at each location; eventually and permanently it
// outputs the ID of a single live location at every live location.  TΩ is
// the set of valid sequences t over Iˆ ∪ OΩ such that if live(t) ≠ ∅ there
// is an l ∈ live(t) and a suffix of t whose Ω-outputs are all FD-Ω(l)i with
// i ∈ live(t).
//
// The canonical automaton is Algorithm 1: output min(Π \ crashset) at every
// un-crashed location.
type Omega struct{}

var _ Detector = Omega{}

// Family implements Detector.
func (Omega) Family() string { return FamilyOmega }

// Automaton implements Detector (Algorithm 1).
func (Omega) Automaton(n int) ioa.Automaton {
	return NewGenerator(FamilyOmega, n, func(st *GenState, _ ioa.Loc) string {
		return ioa.EncodeLoc(st.MinLive())
	}).StablePayload(0)
}

// Check implements Detector.
func (Omega) Check(t trace.T, n int, w Window) error {
	if err := CheckValidity(t, n, FamilyOmega, w); err != nil {
		return err
	}
	if w.Prefix {
		// Ω's only clause beyond validity is the eventual leader
		// stabilization, which no finite prefix refutes.
		return nil
	}
	live := trace.Live(t, n)
	if live.IsEmpty() {
		return nil // TΩ constrains only traces with live locations
	}
	// There must exist a live leader l and a non-vacuous suffix on which
	// every Ω output (necessarily at a live location, by validity and the
	// suffix position) reports l.
	for _, l := range live.AppendMembers(nil) {
		want := ioa.EncodeLoc(l)
		if _, ok := stableFrom(t, n, FamilyOmega, w.minStable(), func(a ioa.Action) bool {
			return a.Payload == want && live.Has(a.Loc)
		}); ok {
			return nil
		}
	}
	return fmt.Errorf("afd: no live leader stabilizes in Ω trace (live=%v)", live)
}
