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

// compose builds the system of a registered chaos target through
// chaos.Run.Build.
func compose(id string, n int, crash ...ioa.Loc) (*ioa.System, error) {
	target, err := chaos.ParseTarget(id)
	if err != nil {
		return nil, err
	}
	b, _, err := chaos.Run{Target: target, N: n, Plan: system.CrashOf(crash...)}.Build()
	if err != nil {
		return nil, err
	}
	return b.Sys, nil
}

// build is compose for a test.
func build(t *testing.T, id string, n int, crash []ioa.Loc) *ioa.System {
	t.Helper()
	sys, err := compose(id, n, crash...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
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
