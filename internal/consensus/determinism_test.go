package consensus

import (
	"fmt"
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
)

// TestComposedSystemDeterminism validates the Section-2.5 task-determinism
// and Clone/AppendEncode contracts of every automaton in the full composed system
// (processes, channels, environments, detector, crash automaton) by
// replaying fair schedules — the property the execution-tree machinery of
// Section 8 depends on.
func TestComposedSystemDeterminism(t *testing.T) {
	for _, algo := range []string{"ct", "s"} {
		family := afd.FamilyOmega
		if algo == "s" {
			family = afd.FamilyP
		}
		d, err := afd.Lookup(family, 3)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := Build(BuildSpec{
			N:      3,
			Family: family,
			Algo:   algo,
			Det:    d.Automaton(3),
			Crash:  []ioa.Loc{2},
			Values: []int{0, 1, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		sched := ioa.RoundRobinSchedule(sys, 25)
		if err := ioa.CheckDeterminism(sys, sched); err != nil {
			t.Errorf("algo %s: %v", algo, err)
		}
	}
}

// TestRunSpecReusable runs one RunSpec value twice: Build composes a clone
// of BuildSpec.Det, so the second run starts from the same detector state as
// the first and traces the same events.
func TestRunSpecReusable(t *testing.T) {
	d, err := afd.Lookup(afd.FamilyEvP, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{
		Build: BuildSpec{N: 4, Family: afd.FamilyEvP, Det: d.Automaton(4), Values: []int{0, 1, 1, 0}},
		Steps: 20_000,
		Seed:  -1,
	}
	var runs [2]*Result
	for i := range runs {
		if runs[i], err = Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(runs[0].Trace) != fmt.Sprint(runs[1].Trace) {
		t.Fatalf("two runs of one spec traced %d and %d events", len(runs[0].Trace), len(runs[1].Trace))
	}
}
