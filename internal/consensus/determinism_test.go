package consensus_test

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/trace"
)

// TestComposedSystemDeterminism validates the Section-2.5 task-determinism
// and Clone/AppendEncode contracts of every automaton in the full composed system
// (processes, channels, environments, detector, crash automaton) by
// replaying fair schedules — the property the execution-tree machinery of
// Section 8 depends on.
func TestComposedSystemDeterminism(t *testing.T) {
	for _, id := range []string{"consensus:FD-Ω@011", "smachine:FD-P@011"} {
		target, err := chaos.ParseTarget(id)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := chaos.Run{Target: target, N: 3, Plan: system.CrashOf(2)}.Build()
		if err != nil {
			t.Fatal(err)
		}
		sched := ioa.RoundRobinSchedule(b.Sys, 25)
		if err := ioa.CheckDeterminism(b.Sys, sched); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

// TestRunSpecReusable executes one chaos.Run value twice: Run.Build
// composes a fresh system each time, so the second run starts from the same
// state as the first and traces the same events.
func TestRunSpecReusable(t *testing.T) {
	target, err := chaos.ParseTarget("consensus:FD-◇P@0110")
	if err != nil {
		t.Fatal(err)
	}
	r := chaos.Run{Target: target, N: 4, Steps: 20_000}
	var runs [2]chaos.Verdict
	for i := range runs {
		if runs[i], err = chaos.Execute(r); err != nil {
			t.Fatal(err)
		}
	}
	if !trace.Equal(runs[0].Trace, runs[1].Trace) {
		t.Fatalf("two runs of one Run traced %d and %d events", len(runs[0].Trace), len(runs[1].Trace))
	}
}
