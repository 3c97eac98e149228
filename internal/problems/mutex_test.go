package problems_test

import (
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
	. "repro/internal/problems"
	"repro/internal/trace"
)

func runMutex(t *testing.T, n int, family string, crash []ioa.Loc, seed int64, steps, gate int) trace.T {
	t.Helper()
	return drive(build(t, "mutex:"+family, n, crash), seed, steps, gate)
}

func mutexProject(t trace.T) trace.T {
	return trace.Project(t, func(a ioa.Action) bool {
		switch {
		case a.Kind == ioa.KindCrash:
			return true
		case a.Kind == ioa.KindEnvOut && (a.Name == ActNameEnter || a.Name == ActNameExit):
			return true
		}
		return false
	})
}

// TestMutexFailureFree: the token circulates; every location enters many
// times; exclusion holds throughout (P never mis-suspects and ◇P's canonical
// automaton here is accurate once stabilized).
func TestMutexFailureFree(t *testing.T) {
	for _, fam := range []string{afd.FamilyP, afd.FamilyEvP} {
		for _, seed := range []int64{-1, 1} {
			tr := mutexProject(runMutex(t, 3, fam, nil, seed, 4000, 0))
			spec := MutexSpec{N: 3, Window: 3}
			if err := spec.Check(tr); err != nil {
				t.Fatalf("fd=%s seed=%d: %v", fam, seed, err)
			}
			rounds := MutexRounds(tr)
			for i := 0; i < 3; i++ {
				if rounds[ioa.Loc(i)] < 5 {
					t.Fatalf("fd=%s seed=%d: location %d entered only %d times", fam, seed, i, rounds[ioa.Loc(i)])
				}
			}
		}
	}
}

// TestMutexSurvivesHolderCrash: crash a location while the token moves
// through it; the successor regenerates and progress resumes — the
// eventual-exclusion suffix exists.
func TestMutexSurvivesHolderCrash(t *testing.T) {
	for _, crashLoc := range []ioa.Loc{0, 1, 2} {
		for _, seed := range []int64{-1, 2} {
			tr := mutexProject(runMutex(t, 3, afd.FamilyP, []ioa.Loc{crashLoc}, seed, 6000, 60))
			spec := MutexSpec{N: 3, Window: 3}
			if err := spec.Check(tr); err != nil {
				t.Fatalf("crash=%v seed=%d: %v", crashLoc, seed, err)
			}
		}
	}
}

// TestMutexManySeeds fuzzes schedules with a crash; the ◇-exclusion checker
// must accept every run and report how many transient violations occurred.
func TestMutexManySeeds(t *testing.T) {
	violations := 0
	for seed := int64(0); seed < 15; seed++ {
		tr := mutexProject(runMutex(t, 3, afd.FamilyEvP, []ioa.Loc{2}, seed, 8000, 40))
		if err := (MutexSpec{N: 3, Window: 2}).Check(tr); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		violations += MutexExclusionViolations(tr)
	}
	t.Logf("transient exclusion violations across 15 runs: %d", violations)
}

// TestMutexIsNotBounded: the Section-7.3 bounded-length classifier refutes
// any finite output bound on ◇-mutex traces — the problem is long-lived,
// hence outside Theorem 21's no-representative class.
func TestMutexIsNotBounded(t *testing.T) {
	tr := mutexProject(runMutex(t, 3, afd.FamilyP, nil, -1, 4000, 0))
	w := Witness{
		Traces:  []trace.T{tr},
		IsTrace: func(trace.T) error { return nil },
		IsOutput: func(a ioa.Action) bool {
			return a.Kind == ioa.KindEnvOut && a.Name == ActNameEnter
		},
	}
	if _, err := w.CheckBoundedLength(10); err == nil {
		t.Fatal("a 4000-step mutex run stayed within 10 outputs; not long-lived?")
	}
}

func TestMutexSpecRejectsMalformed(t *testing.T) {
	enter := func(i ioa.Loc) ioa.Action { return ioa.EnvOutput(ActNameEnter, i, "1") }
	exit := func(i ioa.Loc) ioa.Action { return ioa.EnvOutput(ActNameExit, i, "1") }
	spec := MutexSpec{N: 2}

	if err := spec.Check(trace.T{enter(0), enter(0)}); err == nil {
		t.Error("double enter accepted")
	}
	if err := spec.Check(trace.T{exit(0)}); err == nil {
		t.Error("exit without enter accepted")
	}
	if err := spec.Check(trace.T{ioa.Crash(0), enter(0)}); err == nil {
		t.Error("enter after crash accepted")
	}
	// Permanent overlap: both inside at the very end.
	overlap := trace.T{enter(0), enter(1)}
	if err := spec.Check(overlap); err == nil {
		t.Error("trailing mutual occupancy accepted")
	}
	// Transient overlap followed by a clean exclusive suffix passes.
	ok := trace.T{
		enter(0), enter(1), exit(0), exit(1), // messy prefix
		enter(0), exit(0), enter(1), exit(1), // clean suffix
	}
	if err := spec.Check(ok); err != nil {
		t.Errorf("eventually exclusive trace rejected: %v", err)
	}
}

func TestMutexProcsRejectsLeaderDetector(t *testing.T) {
	if _, err := MutexProcs(3, afd.FamilyOmega); err == nil {
		t.Fatal("mutex needs suspicion sets; Ω must be refused")
	}
}

func TestMutexExclusionViolationsCounter(t *testing.T) {
	enter := func(i ioa.Loc) ioa.Action { return ioa.EnvOutput(ActNameEnter, i, "1") }
	exit := func(i ioa.Loc) ioa.Action { return ioa.EnvOutput(ActNameExit, i, "1") }
	tr := trace.T{enter(0), enter(1), exit(1), exit(0), enter(0), exit(0)}
	if got := MutexExclusionViolations(tr); got != 1 {
		t.Fatalf("violations = %d, want 1 (the enter(1) instant)", got)
	}
}
