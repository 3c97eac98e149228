package afd

import (
	"fmt"
	"sort"
)

// chandraToueg holds the eight Chandra-Toueg detectors as rows of the zoo:
// family, completeness | accuracy, min-live automaton, perverse prefix (see
// ctDetector).
var chandraToueg = [...]Detector{
	ctDetector{FamilyP, completenessStrong | accuracyPerpetual, false, 0},
	ctDetector{FamilyEvP, completenessStrong | accuracyEventualStrong, false, 2},
	ctDetector{FamilyS, completenessStrong | accuracyWeak, false, 0},
	ctDetector{FamilyEvS, completenessStrong | accuracyEventualWeak, false, 2},
	ctDetector{FamilyW, completenessWeak | accuracyWeak, true, 0},
	ctDetector{FamilyEvW, completenessWeak | accuracyEventualWeak, true, 0},
	ctDetector{FamilyQ, completenessWeak | accuracyPerpetual, true, 0},
	ctDetector{FamilyEvQ, completenessWeak | accuracyEventualStrong, true, 0},
}

// Standard returns the detector zoo of Section 3.3 instantiated with
// conventional parameters for an n-location system: the eight Chandra-Toueg
// detectors, Ω, Σ, anti-Ω, Ωk and Ψk (k = ⌈n/2⌉), keyed by family name.
func Standard(n int) map[string]Detector {
	k := (n + 1) / 2
	m := make(map[string]Detector, len(chandraToueg)+5)
	for _, d := range chandraToueg {
		m[d.Family()] = d
	}
	for _, d := range []Detector{Omega{}, Sigma{}, AntiOmega{}, OmegaK{K: k}, PsiK{K: k}} {
		m[d.Family()] = d
	}
	return m
}

// Lookup returns the standard detector with the given family name.
func Lookup(family string, n int) (Detector, error) {
	d, ok := Standard(n)[family]
	if !ok {
		return nil, fmt.Errorf("afd: unknown detector family %q (known: %v)", family, Families(n))
	}
	return d, nil
}

// Families returns the sorted family names of the standard zoo.
func Families(n int) []string {
	m := Standard(n)
	out := make([]string, 0, len(m))
	for f := range m {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
