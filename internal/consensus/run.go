package consensus

import (
	"fmt"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/trace"
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

// BuildSpec assembles the full Section-9.3 system S: the consensus
// algorithm, the channel mesh, the environment EC, the detector automaton,
// and the crash automaton.  Build composes a clone of Det, so one BuildSpec
// (and one RunSpec) may build or run any number of times.
type BuildSpec struct {
	N      int
	Family string        // detector family; "" = no detector
	Det    ioa.Automaton // detector automaton; nil = none
	Algo   string        // "ct" (default) or "s" (the CT96 S algorithm)
	Crash  []ioa.Loc
	// Values fixes the environment proposals per location; nil uses the
	// free Algorithm-4 environment (both values enabled).
	Values []int
}

// Build composes the system.
func Build(spec BuildSpec) (*ioa.System, error) {
	var procs []ioa.Automaton
	var err error
	switch spec.Algo {
	case "", "ct":
		procs, err = Procs(spec.N, spec.Family)
	case "s":
		procs, err = SProcs(spec.N, spec.Family)
	default:
		return nil, fmt.Errorf("consensus: unknown algorithm %q", spec.Algo)
	}
	if err != nil {
		return nil, err
	}
	autos := append(procs, system.Channels(spec.N)...)
	if spec.Values != nil {
		if len(spec.Values) != spec.N {
			return nil, fmt.Errorf("consensus: %d values for %d locations", len(spec.Values), spec.N)
		}
		autos = append(autos, system.ConsensusEnvsFixed(spec.Values)...)
	} else {
		autos = append(autos, system.ConsensusEnvs(spec.N)...)
	}
	if spec.Det != nil {
		autos = append(autos, spec.Det.Clone())
	}
	autos = append(autos, system.NewCrash(system.CrashOf(spec.Crash...)))
	return ioa.NewSystem(autos...)
}

// Result summarizes a consensus run for the experiment harness.
type Result struct {
	Steps      int
	Reason     sched.StopReason
	Decisions  int     // number of decide events
	Value      string  // the agreed value ("" if none)
	MaxRound   int     // highest round reached by any process
	AllDecided bool    // every live location decided
	Trace      trace.T // full external trace
}

// RunSpec configures a consensus run.
type RunSpec struct {
	Build     BuildSpec
	Steps     int
	Seed      int64 // <0: round-robin
	CrashGate int   // 0 = crashes release immediately
}

// StopWhenAllDecided returns a scheduler stop condition that ends a run of
// n locations once every location has decided or crashed, and the
// predicate it tests on the events seen so far (system.StopWhenEach).
func StopWhenAllDecided(n int) (stop func(*ioa.System, ioa.Action) bool, allDecided func() bool) {
	return system.StopWhenEach(n, 1, ioa.KindEnvOut, system.ActNameDecide)
}

// Run executes the composed system until every live location has decided (or
// the bound), and gathers metrics.
func Run(spec RunSpec) (*Result, error) {
	sys, err := Build(spec.Build)
	if err != nil {
		return nil, err
	}
	stop, allDecided := StopWhenAllDecided(spec.Build.N)
	opts := sched.Options{MaxSteps: spec.Steps, Stop: stop}
	if spec.CrashGate > 0 {
		opts.Gate = sched.CrashesAfter(spec.CrashGate, spec.CrashGate)
	}
	var res sched.Result
	if spec.Seed >= 0 {
		res = sched.Random(sys, spec.Seed, opts)
	} else {
		res = sched.RoundRobin(sys, opts)
	}

	out := &Result{Steps: res.Steps, Reason: res.Reason, Trace: sys.Trace()}
	decs := Decisions(sys.Trace())
	out.Decisions = len(decs)
	if len(decs) > 0 {
		out.Value = decs[0].Payload
	}
	for _, a := range sys.Automata() {
		p, ok := a.(*system.Proc)
		if !ok {
			continue
		}
		switch m := p.MachineState().(type) {
		case *CTMachine:
			if m.Round() > out.MaxRound {
				out.MaxRound = m.Round()
			}
		case *SMachine:
			if m.Round() > out.MaxRound {
				out.MaxRound = m.Round()
			}
		}
	}
	out.AllDecided = allDecided()
	return out, nil
}
