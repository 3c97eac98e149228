package valence

import (
	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/trace"
)

// PerfectTD builds an admissible P sequence tD ∈ TP for n locations:
// `rounds` sweeps of FD-P(crashset)i at every live location, with crash
// events injected before the sweep whose index equals crashAt[loc] — what
// Algorithm 2 produces under a fair schedule with that fault pattern.
func PerfectTD(n, rounds int, crashAt map[ioa.Loc]int) trace.T {
	var t trace.T
	var crashed ioa.LocSet
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			l := ioa.Loc(i)
			if at, ok := crashAt[l]; ok && at == r && !crashed.Has(l) {
				crashed.Add(l)
				t = append(t, ioa.Crash(l))
			}
		}
		payload := crashed.String()
		for i := 0; i < n; i++ {
			l := ioa.Loc(i)
			if !crashed.Has(l) {
				t = append(t, ioa.FDOutput(afd.FamilyP, l, payload))
			}
		}
	}
	return t
}

// OmegaTD builds an admissible Ω sequence tD ∈ TΩ for n locations: `rounds`
// sweeps of FD-Ω(leader)i at every live location, where the leader is the
// minimum live location, with crash events injected before the sweep whose
// index equals crashAt[loc].  The result is what Algorithm 1 produces under
// a fair schedule with that fault pattern, and is checkable against the Ω
// membership checker.
func OmegaTD(n, rounds int, crashAt map[ioa.Loc]int) trace.T {
	var t trace.T
	var crashed ioa.LocSet
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			l := ioa.Loc(i)
			if at, ok := crashAt[l]; ok && at == r && !crashed.Has(l) {
				crashed.Add(l)
				t = append(t, ioa.Crash(l))
			}
		}
		leader := ioa.NoLoc
		for i := 0; i < n; i++ {
			if !crashed.Has(ioa.Loc(i)) {
				leader = ioa.Loc(i)
				break
			}
		}
		if leader == ioa.NoLoc {
			break
		}
		for i := 0; i < n; i++ {
			l := ioa.Loc(i)
			if !crashed.Has(l) {
				t = append(t, ioa.FDOutput(afd.FamilyOmega, l, ioa.EncodeLoc(leader)))
			}
		}
	}
	return t
}
