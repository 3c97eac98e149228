package consensus

import (
	"fmt"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/system"
)

// SuspectorFor returns the suspector adapter matching a detector family:
// leader adapters for Ω, set adapters for the suspicion-set detectors.
func SuspectorFor(family string) (Suspector, error) {
	switch family {
	case afd.FamilyOmega:
		return NewLeaderSuspector(), nil
	case afd.FamilyP, afd.FamilyEvP, afd.FamilyS, afd.FamilyEvS, afd.FamilyQ, afd.FamilyEvQ, afd.FamilyW, afd.FamilyEvW:
		return NewSetSuspector(), nil
	case "":
		return NeverSuspector{}, nil
	default:
		return nil, fmt.Errorf("consensus: no suspector adapter for family %q", family)
	}
}

// Procs returns the distributed consensus algorithm: one CT process
// automaton per location, subscribed to the given detector family ("" runs
// detector-free with a never-suspecting adapter, for the FLP demos).
func Procs(n int, family string) ([]ioa.Automaton, error) {
	out := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		susp, err := SuspectorFor(family)
		if err != nil {
			return nil, err
		}
		m := NewCTMachine(n, ioa.Loc(i), susp)
		var fds []string
		if family != "" {
			fds = []string{family}
		}
		out[i] = system.NewProc("ct", ioa.Loc(i), n, m, fds, []string{system.ActNamePropose})
	}
	return out, nil
}

// MaxRound returns the highest round any consensus process of sys has
// reached: the cost the E7 and E8 tables of EXPERIMENTS.md report beside a
// run's events.
func MaxRound(sys *ioa.System) int {
	top := 0
	for _, a := range sys.Automata() {
		if p, ok := a.(*system.Proc); ok {
			if m, ok := p.MachineState().(interface{ Round() int }); ok {
				top = max(top, m.Round())
			}
		}
	}
	return top
}
