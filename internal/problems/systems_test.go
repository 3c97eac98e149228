package problems_test

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/trace"
)

// These tests live outside package problems because chaos, whose target
// registry composes their systems, imports it.

// build composes the system of a registered chaos target through
// chaos.Run.Build.
func build(t *testing.T, id string, n int, crash []ioa.Loc) *ioa.System {
	t.Helper()
	target, err := chaos.ParseTarget(id)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := chaos.Run{Target: target, N: n, Plan: system.CrashOf(crash...)}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return b.Sys
}

// drive runs sys to the step bound — round-robin when seed < 0, crashes
// released from step gate on when gate > 0, with no stop condition — and
// returns its trace.
func drive(sys *ioa.System, seed int64, steps, gate int) trace.T {
	opts := sched.Options{MaxSteps: steps}
	if gate > 0 {
		opts.Gate = sched.CrashesAfter(gate, gate)
	}
	if seed >= 0 {
		sched.Random(sys, seed, opts)
	} else {
		sched.RoundRobin(sys, opts)
	}
	return sys.Trace()
}
