// Package afd implements the asynchronous failure detector (AFD) formalism
// of Section 3 of "Asynchronous Failure Detectors" (Cornejo, Lynch, Sastry):
// the defining properties (validity, closure under sampling, closure under
// constrained reordering), executable membership checkers for the detectors
// the paper names, and canonical implementation automata for each of them
// (Algorithms 1 and 2 and their straightforward generalizations).
//
// An AFD D ≡ (Iˆ, OD, TD) is a crash problem whose only inputs are the crash
// events and whose admissible output sequences TD satisfy the three AFD
// properties.  In this package a Detector bundles:
//
//   - the action family of OD (a distinct ioa.Action name per detector, so
//     that renamings and distinct detectors never collide under composition);
//   - a canonical automaton whose fair traces lie in TD (the paper's device
//     for establishing that a specification is non-trivial, Section 3.1);
//   - a checker deciding whether a finite trace over Iˆ ∪ OD is a prefix of
//     some member of TD, under the documented finite-prefix semantics.
//
// Standard is the zoo and Lookup finds a detector in it by family.  The
// eight Chandra-Toueg detectors (P, ◇P, S, ◇S, W, ◇W, Q, ◇Q) are one
// Detector implementation and eight rows of Standard: each row fixes a
// family, one completeness clause, one accuracy clause, and one of three
// generator shapes (the crash set; the crash set at the min-live location
// only; everything but self for the first k outputs, then the crash set).
// Ω, Σ, anti-Ω, Ωk and Ψk have types of their own.
//
// # Finite-prefix semantics
//
// Simulations produce finite prefixes of fair executions.  A property of the
// form "eventually permanently X" is checked as: there is a suffix of the
// prefix on which X holds, and that suffix is non-vacuous — it contains at
// least Window.MinStableOutputs output events at every live location.  The
// validity clause "infinitely many outputs at each live location" is checked
// as at least Window.MinOutputsPerLive outputs at each live location.  Both
// bounds default to 1; experiments use larger windows for confidence.
package afd

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// Window parameterizes the finite-prefix reading of liveness clauses.
type Window struct {
	// MinOutputsPerLive is the finite stand-in for "infinitely many
	// outputs occur at each live location" (validity, Section 3.2).
	MinOutputsPerLive int
	// MinStableOutputs is the per-live-location number of output events a
	// stable suffix must contain to witness an "eventually permanently"
	// clause non-vacuously.
	MinStableOutputs int
	// Prefix selects prefix-admissibility: the trace is judged as a finite
	// prefix of a member of TD, so only clauses refutable on a prefix are
	// enforced (perpetual accuracy, quorum intersection, validity's
	// no-output-after-crash) and "eventually"-clauses are skipped — a
	// finite prefix can never refute them.
	//
	// Prefix mode is what closure under constrained reordering needs: a
	// reordering may move pre-crash outputs past the end of the observed
	// window (they are "delayed", Section 3.2), leaving a sequence that is
	// a prefix of an admissible trace without containing its stabilized
	// suffix.
	Prefix bool
}

// DefaultWindow is the minimal non-vacuous window.
func DefaultWindow() Window { return Window{MinOutputsPerLive: 1, MinStableOutputs: 1} }

// PrefixWindow is the prefix-admissibility window (safety clauses only).
func PrefixWindow() Window { return Window{Prefix: true} }

func (w Window) minOutputs() int {
	if w.MinOutputsPerLive <= 0 {
		return 1
	}
	return w.MinOutputsPerLive
}

func (w Window) minStable() int {
	if w.MinStableOutputs <= 0 {
		return 1
	}
	return w.MinStableOutputs
}

// Detector is an asynchronous failure detector specification with a
// canonical implementation automaton.
type Detector interface {
	// Family is the ioa.Action name of the detector's output events.
	Family() string
	// Automaton returns a fresh canonical implementation for n locations:
	// an automaton whose inputs are exactly the crash actions and whose
	// fair traces are a subset of TD (cf. Algorithms 1 and 2).
	Automaton(n int) ioa.Automaton
	// Check decides whether t — a finite trace over Iˆ ∪ OD, i.e. crash
	// events and this family's output events only — is admissible as a
	// prefix of a member of TD under the finite-prefix semantics of w.
	Check(t trace.T, n int, w Window) error
}

// IsOutput returns the classifier for a detector family's output events,
// used with the trace-calculus sampling helpers.
func IsOutput(family string) func(ioa.Action) bool {
	return func(a ioa.Action) bool { return a.Kind == ioa.KindFD && a.Name == family }
}

// CheckCrashExclusive verifies that t ranges over Iˆ ∪ OD for the given
// family: only crash events and output events of that family occur.  This is
// the crash-exclusivity side condition of Section 3.2 on the sequences a
// detector checker consumes.
func CheckCrashExclusive(t trace.T, family string) error {
	for _, a := range t {
		if a.Kind == ioa.KindCrash {
			continue
		}
		if a.Kind == ioa.KindFD && a.Name == family {
			continue
		}
		return fmt.Errorf("afd: event %v is neither a crash nor an output of %s", a, family)
	}
	return nil
}

// CheckValidity verifies the validity property of Section 3.2 on a finite
// trace: (1) no output occurs at a location after that location's first
// crash event; (2) every live location has at least w.MinOutputsPerLive
// outputs (the finite reading of "infinitely many").
func CheckValidity(t trace.T, n int, family string, w Window) error {
	if err := CheckCrashExclusive(t, family); err != nil {
		return err
	}
	isOut := IsOutput(family)
	var crashed ioa.LocSet
	counts := make([]int, n)
	for _, a := range t {
		if a.Loc < 0 || int(a.Loc) >= n {
			return fmt.Errorf("afd: event %v at out-of-range location (n=%d)", a, n)
		}
		switch {
		case a.Kind == ioa.KindCrash:
			crashed.Add(a.Loc)
		case isOut(a):
			if crashed.Has(a.Loc) {
				return fmt.Errorf("afd: output %v after crash_%v (validity 1)", a, a.Loc)
			}
			counts[a.Loc]++
		}
	}
	if w.Prefix {
		return nil // validity clause 2 is a liveness clause
	}
	for i := 0; i < n; i++ {
		if !crashed.Has(ioa.Loc(i)) && counts[i] < w.minOutputs() {
			return fmt.Errorf("afd: live location %d has %d outputs, need ≥ %d (validity 2)",
				i, counts[i], w.minOutputs())
		}
	}
	return nil
}

// stableFrom returns the least index s such that every output event of the
// family in t[s:] satisfies pred, and reports whether the suffix t[s:]
// contains at least minPer outputs at every live location (non-vacuity).
// The returned bool is false if no such non-vacuous suffix exists.  pred is
// called once per output event, last event first, up to the first it
// rejects, so it may fold state over the suffix.
func stableFrom(t trace.T, n int, family string, minPer int, pred func(a ioa.Action) bool) (int, bool) {
	isOut := IsOutput(family)
	s := len(t)
	for i := len(t) - 1; i >= 0; i-- {
		if isOut(t[i]) && !pred(t[i]) {
			break
		}
		s = i
	}
	live := trace.Live(t, n)
	counts := make(map[ioa.Loc]int)
	for _, a := range t[s:] {
		if isOut(a) {
			counts[a.Loc]++
		}
	}
	for i := ioa.Loc(0); int(i) < n; i++ {
		if live.Has(i) && counts[i] < minPer {
			return s, false
		}
	}
	return s, true
}

// suspects returns the suspect set of a suspicion-style output event in a
// system of n locations.  A malformed payload suspects every location,
// which makes checkers fail loudly on encoding bugs.
func suspects(a ioa.Action, n int) ioa.LocSet {
	set, err := ioa.ParseLocSet(a.Payload)
	if err == nil {
		return set
	}
	var all ioa.LocSet
	for i := ioa.Loc(0); int(i) < n; i++ {
		all.Add(i)
	}
	return all
}
