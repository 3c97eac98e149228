// Package consensus implements Section 9 of "Asynchronous Failure
// Detectors": the f-crash-tolerant binary consensus problem (Section 9.1) as
// a checkable crash-problem specification, and a Chandra-Toueg-style
// rotating-coordinator algorithm that solves it using an AFD (the premise of
// the Section 9.3 system S).
package consensus

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/trace"
)

// Spec is the f-crash-tolerant binary consensus problem P ≡ (IP, OP, TP) of
// Section 9.1 for n locations: IP = {propose(v)i} ∪ Iˆ, OP = {decide(v)i},
// and TP is the set of sequences that, *if* they satisfy environment
// well-formedness and f-crash limitation, satisfy crash validity, agreement,
// validity, and termination.
type Spec struct {
	N int
	F int
}

// CheckAssumptions verifies the two antecedent properties on a trace over
// IP ∪ OP: environment well-formedness and f-crash limitation.  A non-nil
// error means the trace is outside the assumption set, in which case TP
// imposes no guarantees (membership is vacuous).
func (s Spec) CheckAssumptions(t trace.T) error {
	// Environment well-formedness.
	proposed := make(map[ioa.Loc]int)
	var crashed ioa.LocSet
	for _, a := range t {
		switch {
		case a.Kind == ioa.KindCrash:
			crashed.Add(a.Loc)
		case a.Kind == ioa.KindEnvIn && a.Name == system.ActNamePropose:
			if crashed.Has(a.Loc) {
				return fmt.Errorf("consensus: propose at %v after crash (well-formedness 2)", a.Loc)
			}
			proposed[a.Loc]++
			if proposed[a.Loc] > 1 {
				return fmt.Errorf("consensus: multiple proposals at %v (well-formedness 1)", a.Loc)
			}
		}
	}
	for i := 0; i < s.N; i++ {
		l := ioa.Loc(i)
		if !crashed.Has(l) && proposed[l] != 1 {
			return fmt.Errorf("consensus: live location %v has %d proposals, want 1 (well-formedness 3)", l, proposed[l])
		}
	}
	// f-crash limitation.
	if crashed.Len() > s.F {
		return fmt.Errorf("consensus: %d crashes exceed f = %d", crashed.Len(), s.F)
	}
	return nil
}

// CheckGuarantees verifies the four consequent properties on a trace over
// IP ∪ OP.  complete states that the trace is a complete finite prefix of a
// fair execution (the run ended in quiescence or after every live location
// decided); only then is the "exactly once" half of termination enforced.
func (s Spec) CheckGuarantees(t trace.T, complete bool) error {
	decided := make(map[ioa.Loc][]string)
	var crashedBefore ioa.LocSet
	var decisionValue string
	haveDecision := false
	proposedVals := make(map[string]bool)

	for _, a := range t {
		switch {
		case a.Kind == ioa.KindCrash:
			crashedBefore.Add(a.Loc)
		case a.Kind == ioa.KindEnvIn && a.Name == system.ActNamePropose:
			proposedVals[a.Payload] = true
		case a.Kind == ioa.KindEnvOut && a.Name == system.ActNameDecide:
			// Crash validity: no location decides after crashing.
			if crashedBefore.Has(a.Loc) {
				return fmt.Errorf("consensus: decide at %v after crash (crash validity)", a.Loc)
			}
			// Agreement: all decisions equal.
			if haveDecision && a.Payload != decisionValue {
				return fmt.Errorf("consensus: decisions %s and %s differ (agreement)", decisionValue, a.Payload)
			}
			decisionValue = a.Payload
			haveDecision = true
			decided[a.Loc] = append(decided[a.Loc], a.Payload)
			// Termination (at-most-once half).
			if len(decided[a.Loc]) > 1 {
				return fmt.Errorf("consensus: location %v decided twice (termination)", a.Loc)
			}
		}
	}

	// Validity: every decision value was proposed.
	if haveDecision && !proposedVals[decisionValue] {
		return fmt.Errorf("consensus: decision %s was never proposed (validity)", decisionValue)
	}

	// Termination (exactly-once half), only meaningful on complete runs.
	if complete {
		faulty := trace.Faulty(t)
		for i := 0; i < s.N; i++ {
			l := ioa.Loc(i)
			if !faulty.Has(l) && len(decided[l]) != 1 {
				return fmt.Errorf("consensus: live location %v decided %d times, want 1 (termination)", l, len(decided[l]))
			}
		}
	}
	return nil
}

// Check decides membership of t in TP under the finite-prefix semantics: if
// the assumptions hold, the guarantees must hold.
func (s Spec) Check(t trace.T, complete bool) error {
	if err := s.CheckAssumptions(t); err != nil {
		// Outside the assumption set TP imposes nothing.
		return nil
	}
	return s.CheckGuarantees(t, complete)
}

// Checker adapts the consensus specification to the uniform run-verdict
// signature func(trace.T) error consumed by the chaos harness: given a full
// system trace, project it onto IP ∪ OP and decide membership in TP.
func (s Spec) Checker(complete bool) func(trace.T) error {
	return func(t trace.T) error {
		return s.Check(ProjectIO(t), complete)
	}
}

// ProjectIO projects a full system trace onto IP ∪ OP.
func ProjectIO(t trace.T) trace.T {
	return trace.Project(t, func(a ioa.Action) bool {
		switch {
		case a.Kind == ioa.KindCrash:
			return true
		case a.Kind == ioa.KindEnvIn && a.Name == system.ActNamePropose:
			return true
		case a.Kind == ioa.KindEnvOut && a.Name == system.ActNameDecide:
			return true
		default:
			return false
		}
	})
}

// Decisions returns the decide events of a trace in order.
func Decisions(t trace.T) []ioa.Action {
	return trace.Project(t, func(a ioa.Action) bool {
		return a.Kind == ioa.KindEnvOut && a.Name == system.ActNameDecide
	})
}
