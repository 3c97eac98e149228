package afd

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// Output families of the eight Chandra-Toueg detectors (Section 3.3 notes
// all eight detectors of [5] are expressible as AFDs; P and ◇P are spelled
// out in the paper, and S, W, Q and their eventual variants follow the same
// suspicion-set pattern).
const (
	FamilyP   = "FD-P"
	FamilyEvP = "FD-◇P"
	FamilyS   = "FD-S"
	FamilyW   = "FD-W"
	FamilyQ   = "FD-Q"
	FamilyEvS = "FD-◇S"
	FamilyEvW = "FD-◇W"
	FamilyEvQ = "FD-◇Q"
)

// ctDetector is the one Detector behind the eight Chandra-Toueg rows of
// Standard: suspicion-set outputs judged by one completeness clause and one
// accuracy clause, generated by one of three canonical automata.
//
//	family  completeness  accuracy          automaton
//	P       strong        perpetual strong  crashset (Algorithm 2)
//	◇P      strong        eventual strong   perverse
//	S       strong        perpetual weak    crashset
//	◇S      strong        eventual weak     perverse
//	W       weak          perpetual weak    min-live
//	◇W      weak          eventual weak     min-live
//	Q       weak          perpetual strong  min-live
//	◇Q      weak          eventual strong   min-live
//
// Strong accuracy: no location is suspected before its crash (perpetual),
// or eventually no live location is suspected.  Weak accuracy: some live
// location is never suspected, or eventually some live location is not.
// Strong completeness: eventually every output suspects every faulty
// location.  Weak completeness: every faulty location is eventually
// permanently suspected by some live location.
//
// crashset outputs exactly the crash set everywhere.  perverse suspects
// Π \ {i} for the first Perverse outputs at each location i, then the crash
// set; for Perverse > 0 its traces are in T◇P (T◇S) but not in TP (TS),
// witnessing that the eventual variants are strictly weaker.  min-live
// outputs the crash set at min(Π \ crashset) and ∅ elsewhere: weakly but
// (with ≥ 2 live locations and ≥ 1 fault) not strongly complete.  An
// automaton that cannot see the future fault pattern can guarantee
// perpetual weak accuracy only by never suspecting a location that might
// stay live, so S's automaton is P's; TS ⊋ TP is witnessed by checker
// tests on handcrafted traces.
type ctDetector struct {
	family  string
	clauses suspicionProps // one completeness and one accuracy flag
	minLive bool           // the min-live automaton; otherwise crashset or perverse
	// Perverse is the number of initial inaccurate outputs per location
	// (◇P, ◇S; zero in every other row).
	Perverse int
}

var _ Detector = ctDetector{}

// Family implements Detector.
func (d ctDetector) Family() string { return d.family }

// Automaton implements Detector.
func (d ctDetector) Automaton(n int) ioa.Automaton {
	if d.minLive {
		return minLiveGenerator(d.family, n)
	}
	return suspicionGenerator(d.family, n, d.Perverse)
}

// Check implements Detector.
func (d ctDetector) Check(t trace.T, n int, w Window) error {
	if err := CheckValidity(t, n, d.family, w); err != nil {
		return err
	}
	return checkSuspicions(t, n, d.family, w, d.clauses)
}

// suspicionGenerator suspects Π \ {i} for the first k outputs at each
// location i, then exactly crashset; k = 0 is Algorithm 2.
func suspicionGenerator(family string, n, k int) ioa.Automaton {
	return NewGenerator(family, n, func(st *GenState, i ioa.Loc) string {
		if st.Emitted[i] < k {
			var wrong ioa.LocSet
			for j := ioa.Loc(0); int(j) < st.N; j++ {
				if j != i {
					wrong.Add(j)
				}
			}
			return wrong.String()
		}
		return st.Crashed.String()
	}).StablePayload(k)
}

// minLiveGenerator outputs crashset at min(Π \ crashset) and ∅ elsewhere.
func minLiveGenerator(family string, n int) ioa.Automaton {
	return NewGenerator(family, n, func(st *GenState, i ioa.Loc) string {
		if i == st.MinLive() {
			return st.Crashed.String()
		}
		return ioa.LocSet{}.String()
	}).StablePayload(0)
}

// Suspicion-property flags shared by the Chandra-Toueg-style checkers.
type suspicionProps uint8

const (
	// accuracyPerpetual: no location suspected before its crash.
	accuracyPerpetual suspicionProps = 1 << iota
	// accuracyEventualStrong: eventually no live location suspected.
	accuracyEventualStrong
	// accuracyWeak: some live location is never suspected.
	accuracyWeak
	// accuracyEventualWeak: eventually some live location is not suspected.
	accuracyEventualWeak
	// completenessStrong: eventually every output suspects every faulty.
	completenessStrong
	// completenessWeak: eventually, for every faulty f, some live location's
	// outputs permanently suspect f.
	completenessWeak
)

// checkSuspicions verifies the selected accuracy/completeness combination on
// a suspicion-set trace of the given family.  t must already be validity-
// checked, so every location it names is below n.  When there are no live
// locations every clause below is vacuous (nothing is output after the
// final crash), so the trace is admissible.  Each clause decodes an
// output's payload once, however many locations it asks about.
func checkSuspicions(t trace.T, n int, family string, w Window, props suspicionProps) error {
	isOut := IsOutput(family)
	liveSet, faultySet := trace.Live(t, n), trace.Faulty(t)
	if liveSet.IsEmpty() {
		return nil
	}

	if props&accuracyPerpetual != 0 {
		var crashed ioa.LocSet
		for _, a := range t {
			if a.Kind == ioa.KindCrash {
				crashed.Add(a.Loc)
				continue
			}
			if !isOut(a) {
				continue
			}
			s := suspects(a, n)
			for i := ioa.Loc(0); int(i) < n; i++ {
				if s.Has(i) && !crashed.Has(i) {
					return fmt.Errorf("afd: %s suspects %d before crash (strong accuracy)", a, i)
				}
			}
		}
	}

	if props&accuracyWeak != 0 {
		// Some live location must lie outside every output's suspect set.
		var ever ioa.LocSet
		for _, a := range t {
			if isOut(a) {
				ever = ever.Union(suspects(a, n))
			}
		}
		if liveSet.SubsetOf(ever) {
			return fmt.Errorf("afd: %s: every live location suspected at some point (weak accuracy)", family)
		}
	}

	if w.Prefix {
		// The remaining clauses are all "eventually (permanently) X":
		// unrefutable on a finite prefix.
		return nil
	}

	if props&accuracyEventualStrong != 0 {
		if _, ok := stableFrom(t, n, family, w.minStable(), func(a ioa.Action) bool {
			return !suspects(a, n).Intersects(liveSet)
		}); !ok {
			return fmt.Errorf("afd: %s never stops suspecting live locations (eventual strong accuracy)", family)
		}
	}

	if props&accuracyEventualWeak != 0 {
		// The live location whose last suspicion comes earliest has the
		// longest unsuspected suffix: it starts after the output at which,
		// scanning back, every live location has been suspected.
		unsuspected := liveSet
		if _, ok := stableFrom(t, n, family, w.minStable(), func(a ioa.Action) bool {
			unsuspected = unsuspected.Minus(suspects(a, n))
			return !unsuspected.IsEmpty()
		}); !ok {
			return fmt.Errorf("afd: %s: no live location eventually unsuspected (eventual weak accuracy)", family)
		}
	}

	if props&completenessStrong != 0 {
		if _, ok := stableFrom(t, n, family, w.minStable(), func(a ioa.Action) bool {
			return faultySet.SubsetOf(suspects(a, n))
		}); !ok {
			return fmt.Errorf("afd: %s: faulty locations not eventually permanently suspected (strong completeness)", family)
		}
	}

	if props&completenessWeak != 0 {
		// A live location l permanently suspects f when its last
		// w.minStable() outputs all suspect f.
		var covered ioa.LocSet
		for _, l := range liveSet.AppendMembers(nil) {
			still, k := faultySet, 0
			for i := len(t) - 1; i >= 0 && k < w.minStable(); i-- {
				if a := t[i]; isOut(a) && a.Loc == l {
					still, k = still.Intersect(suspects(a, n)), k+1
				}
			}
			if k == w.minStable() {
				covered = covered.Union(still)
			}
		}
		if missed := faultySet.Minus(covered); !missed.IsEmpty() {
			return fmt.Errorf("afd: %s: faulty %v not permanently suspected by any live location (weak completeness)",
				family, missed.AppendMembers(nil)[0])
		}
	}

	return nil
}
