package afd

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// Output families of the perfect and eventually perfect detectors.
const (
	FamilyP   = "FD-P"
	FamilyEvP = "FD-◇P"
)

// Perfect is the perfect failure detector P of Section 3.3 (Algorithm 2):
// suspicion-set outputs satisfying
//
//	(1) strong accuracy, perpetual: for every prefix tpre, no event in tpre
//	    suspects a location live in tpre (no location is suspected before
//	    its crash event);
//	(2) strong completeness: there is a suffix in which every output
//	    suspects every faulty location.
type Perfect struct{}

var _ Detector = Perfect{}

// Family implements Detector.
func (Perfect) Family() string { return FamilyP }

// Automaton implements Detector (Algorithm 2): output exactly crashset.
func (Perfect) Automaton(n int) ioa.Automaton {
	return NewGenerator(FamilyP, n, func(st *GenState, _ ioa.Loc) string {
		return ioa.EncodeLocSet(st.CrashSet())
	}).StablePayload(0)
}

// Check implements Detector.
func (Perfect) Check(t trace.T, n int, w Window) error {
	if err := CheckValidity(t, n, FamilyP, w); err != nil {
		return err
	}
	return checkSuspicions(t, n, FamilyP, w, accuracyPerpetual|completenessStrong)
}

// EvPerfect is the eventually perfect failure detector ◇P of Section 3.3:
//
//	(1) eventual strong accuracy: a suffix exists in which no output
//	    suspects any live location;
//	(2) strong completeness as for P.
//
// The canonical automaton outputs a deliberately wrong suspicion set —
// everything except the location itself — for the first Perverse outputs at
// each location, then exactly crashset; its fair traces are in T◇P but (for
// Perverse > 0) not in TP, witnessing that ◇P is strictly weaker.
type EvPerfect struct {
	// Perverse is the number of initial inaccurate outputs per location.
	Perverse int
}

var _ Detector = EvPerfect{}

// Family implements Detector.
func (EvPerfect) Family() string { return FamilyEvP }

// Automaton implements Detector.
func (d EvPerfect) Automaton(n int) ioa.Automaton {
	k := d.Perverse
	return NewGenerator(FamilyEvP, n, func(st *GenState, i ioa.Loc) string {
		if st.Emitted[i] < k {
			wrong := make(map[ioa.Loc]bool)
			for j := 0; j < st.N; j++ {
				if ioa.Loc(j) != i {
					wrong[ioa.Loc(j)] = true
				}
			}
			return ioa.EncodeLocSet(wrong)
		}
		return ioa.EncodeLocSet(st.CrashSet())
	}).StablePayload(k)
}

// Check implements Detector.
func (EvPerfect) Check(t trace.T, n int, w Window) error {
	if err := CheckValidity(t, n, FamilyEvP, w); err != nil {
		return err
	}
	return checkSuspicions(t, n, FamilyEvP, w, accuracyEventualStrong|completenessStrong)
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
	live := trace.Live(t, n)
	if len(live) == 0 {
		return nil
	}
	liveSet, faultySet := ioa.LocSetOf(live), ioa.LocSetOf(trace.Faulty(t))

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
		for l := range live {
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
