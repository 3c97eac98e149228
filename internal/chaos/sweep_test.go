package chaos

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/oracle"
)

// TestSweepHealthyTargets is the tier-2 bounded chaos sweep: the Ω and ◇P
// detectors and consensus-over-Ω swept across every scheduler, enumerated
// fault plans, and sampled adversarial gates must produce zero violations.
// It is the package's acceptance gate (≥100 runs) and is skipped under
// -short; the fixed seed set keeps it deterministic and inside a small time
// budget.
func TestSweepHealthyTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	start := time.Now()
	rep := Sweep(SweepConfig{N: 3, MaxT: -1, Seeds: 8, Shrink: true})
	if rep.Runs < 100 {
		t.Fatalf("sweep covered only %d runs, want ≥ 100", rep.Runs)
	}
	for _, e := range rep.Errors {
		t.Errorf("infrastructure error: %v", e)
	}
	for _, f := range rep.Failures {
		t.Errorf("violation: %s sched=%s seed=%d plan=%v: %v",
			f.Run.Target.ID(), f.Run.Sched, f.Run.Seed, f.Run.Plan, f.Err)
	}
	t.Logf("%s in %v", rep.Summary(), time.Since(start).Round(time.Millisecond))
}

// TestSweepFlagsBrokenDetector checks the sweep's statistical power: the
// slanderer positive control must be flagged, and every shrunk reproducer
// must preserve the strong-accuracy clause and replay deterministically.
func TestSweepFlagsBrokenDetector(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	rep := Sweep(SweepConfig{
		Targets: []Target{DetectorTarget{Family: "slanderer"}},
		N:       3,
		MaxT:    -1,
		Seeds:   2,
		Shrink:  true,
	})
	if len(rep.Failures) == 0 {
		t.Fatal("sweep missed the deliberately broken detector")
	}
	for _, e := range rep.Errors {
		t.Errorf("infrastructure error: %v", e)
	}
	for i, f := range rep.Failures {
		if clause := errClause(f.Err); clause != "(strong accuracy)" {
			t.Errorf("failure %d shrunk to clause %q, want strong accuracy", i, clause)
		}
	}
	// The first reproducer must replay to the identical verdict.
	if _, err := Replay(rep.Failures[0].Artifact()); err != nil {
		t.Errorf("shrunk reproducer does not replay: %v", err)
	}
}

// TestSweepRejectsBadGrid: an N outside 1..system.MaxLocs or a Seeds below
// 1 runs nothing and reports an infrastructure error, instead of sweeping a
// substituted default grid.
func TestSweepRejectsBadGrid(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, seeds int
	}{
		{"n=0", 0, 2},
		{"n=-3", -3, 2},
		{"n=65", 65, 2},
		{"seeds=0", 3, 0},
		{"seeds=-1", 3, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := Sweep(SweepConfig{N: tc.n, Seeds: tc.seeds, MaxT: 0, Steps: 50})
			if rep.Runs != 0 || len(rep.Errors) != 1 {
				t.Fatalf("Runs = %d, Errors = %v; want 0 runs and one error", rep.Runs, rep.Errors)
			}
		})
	}
}

// TestSweepInstrumentAndPlanCap runs the slanderer grid of diffcheck -short
// (3 schedulers × 2 seeds × the first 3 fault plans, 400 steps per
// location) with a stride-1 oracle attached through SweepConfig.Instrument.
// The hook must see every run and every shrink candidate, the oracle must
// stay silent, and the failures must be the 17 strong-accuracy reproducers
// diffcheck reports for this grid: each shrinks to a crash-free,
// round-robin, 3-step run of its seed.
func TestSweepInstrumentAndPlanCap(t *testing.T) {
	var calls atomic.Int64
	rep := Sweep(SweepConfig{
		Targets:  []Target{DetectorTarget{Family: "slanderer"}},
		N:        3,
		MaxT:     -1,
		Seeds:    2,
		Steps:    1200,
		Shrink:   true,
		MaxPlans: 3,
		Instrument: func(b *Built) func() error {
			calls.Add(1)
			return oracle.Attach(b.Sys, oracle.Options{Stride: 1, Shadow: true}).Check
		},
	})
	if rep.Runs != 18 {
		t.Errorf("Runs = %d, want 18", rep.Runs)
	}
	for _, e := range rep.Errors {
		t.Errorf("infrastructure error: %v", e)
	}
	if len(rep.Failures) != 17 {
		t.Errorf("%d failures, want 17", len(rep.Failures))
	}
	const want = "afd: FD-P({0})_0 suspects 0 before crash (strong accuracy)"
	perSeed := map[int64]int{}
	for i, f := range rep.Failures {
		if strings.Contains(f.Err.Error(), "(oracle-") {
			t.Errorf("failure %d is an oracle divergence: %v", i, f.Err)
		}
		if f.Err.Error() != want {
			t.Errorf("failure %d: %v, want %q", i, f.Err, want)
		}
		if r := f.Run; r.Sched != SchedRoundRobin || len(r.Plan.Crash) != 0 || f.Steps != 3 {
			t.Errorf("failure %d shrunk to sched=%s plan=%v steps=%d, want rr, no crash, 3 steps",
				i, r.Sched, r.Plan, f.Steps)
		}
		perSeed[f.Run.Seed]++
	}
	if perSeed[0] != 8 || perSeed[1] != 9 {
		t.Errorf("failures per seed = %v, want map[0:8 1:9]", perSeed)
	}
	if got, want := calls.Load(), int64(rep.Runs+rep.ShrinkTries); got != want {
		t.Errorf("instrument called %d times, want Runs + ShrinkTries = %d", got, want)
	}
}
