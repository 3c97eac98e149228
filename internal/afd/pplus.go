package afd

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// FamilyPPlus is the output family of the instantaneously perfect detector.
const FamilyPPlus = "FD-P+"

// PPlus is the instantaneously perfect failure detector P+ of
// Charron-Bost/Hutle/Widder [6], discussed in the paper's footnote 1: every
// output is exactly the set of locations crashed *so far*.  Unlike P, which
// may lag, P+ is synchronized with the fault pattern instant by instant.
//
// P+ is a well-defined crash problem with crash exclusivity and a causal
// generator (Algorithm 2 emits exactly crashset), and its trace set is
// closed under sampling — but it is NOT an AFD: it violates closure under
// constrained reordering.  A constrained reordering may move a crashj
// event *earlier* relative to an output at a different location (the
// reordering constraints only forbid moving events *before* a crash that
// preceded them), after which that output no longer equals the crash set of
// its prefix.  CheckPPlus therefore rejects some constrained reorderings of
// admissible traces; TestPPlusNotClosedUnderReordering exhibits one.
//
// This makes the paper's footnote-1 point executable: under the AFD
// definition (and under the query-based "implementation" definition of
// [20]) P+ and P collapse, because the asynchronous system cannot use the
// instantaneity that separates them.
type PPlus struct{}

// Automaton returns the causal generator (identical to P's: output
// crashset).  Its fair traces all satisfy CheckPPlus.
func (PPlus) Automaton(n int) ioa.Automaton { return suspicionGenerator(FamilyPPlus, n, 0) }

// CheckPPlus decides membership of a finite trace in TP+: validity plus
// the instantaneity property — every output's payload equals the set of
// locations crashed in the strict prefix before it.
func CheckPPlus(t trace.T, n int, w Window) error {
	if err := CheckValidity(t, n, FamilyPPlus, w); err != nil {
		return err
	}
	var crashed ioa.LocSet
	for _, a := range t {
		switch {
		case a.Kind == ioa.KindCrash:
			crashed.Add(a.Loc)
		case a.Kind == ioa.KindFD && a.Name == FamilyPPlus:
			if want := crashed.String(); a.Payload != want {
				return fmt.Errorf("afd: P+ output %v differs from instantaneous crash set %s", a, want)
			}
		}
	}
	return nil
}
