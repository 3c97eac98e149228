package problems

import (
	"fmt"

	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/system"
)

// hostConsensus runs f — one handler of a hosted consensus machine ct — on
// fresh effects at self, forwards everything it emits to e except its
// decide output, which stays hidden (the hiding operation of Section 2.3),
// and reports ct's decision.  NBAC, TRB and participant-via-consensus host
// consensus this way; each reacts to the decision in its own way.
func hostConsensus(self ioa.Loc, ct interface{ Decided() (string, bool) }, e *system.Effects, f func(*system.Effects)) (string, bool) {
	inner := system.NewEffects(self)
	f(inner)
	for _, a := range inner.Pending() {
		if a.Kind == ioa.KindEnvOut && a.Name == system.ActNameDecide {
			continue
		}
		e.Emit(a)
	}
	return ct.Decided()
}

// setSuspector returns a fresh suspicion-set adapter for family, or an error
// naming the problem when family is not a suspicion-set detector.
func setSuspector(problem, family string) (*consensus.SetSuspector, error) {
	susp, err := consensus.SuspectorFor(family)
	if err != nil {
		return nil, err
	}
	set, ok := susp.(*consensus.SetSuspector)
	if !ok {
		return nil, fmt.Errorf("problems: %s needs a suspicion-set detector, got %q", problem, family)
	}
	return set, nil
}
