package consensus

import (
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/trace"
)

// detFamilies are the detector classes the CT algorithm is exercised with.
func detFamilies() []string {
	return []string{afd.FamilyP, afd.FamilyEvP, afd.FamilyEvS, afd.FamilyOmega}
}

func detectorFor(t *testing.T, family string, n int) ioa.Automaton {
	t.Helper()
	d, err := afd.Lookup(family, n)
	if err != nil {
		t.Fatal(err)
	}
	return d.Automaton(n)
}

// runCase runs one consensus configuration and validates it against the
// Section-9.1 specification.
func runCase(t *testing.T, n int, family string, crash []ioa.Loc, values []int, seed int64, steps int) *Result {
	t.Helper()
	res, err := Run(RunSpec{
		Build: BuildSpec{
			N:      n,
			Family: family,
			Det:    detectorFor(t, family, n),
			Crash:  crash,
			Values: values,
		},
		Steps:     steps,
		Seed:      seed,
		CrashGate: 30, // crash while the protocol is mid-flight
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{N: n, F: (n - 1) / 2}
	io := ProjectIO(res.Trace)
	if err := spec.CheckAssumptions(io); err != nil {
		t.Fatalf("assumptions violated (harness bug): %v", err)
	}
	if err := spec.CheckGuarantees(io, res.AllDecided); err != nil {
		t.Fatalf("n=%d fd=%s crash=%v seed=%d: %v\ntrace tail: %v",
			n, family, crash, seed, err, tail(io, 12))
	}
	return res
}

func tail(t trace.T, k int) trace.T {
	if len(t) <= k {
		return t
	}
	return t[len(t)-k:]
}

// TestConsensusDecidesFailureFree is E7's base case: all detector classes
// decide with no crashes, for odd n up to 7, under fair and random
// schedules.
func TestConsensusDecidesFailureFree(t *testing.T) {
	for _, n := range []int{1, 3, 5, 7} {
		for _, fam := range detFamilies() {
			for _, seed := range []int64{-1, 1} {
				vals := make([]int, n)
				for i := range vals {
					vals[i] = i % 2
				}
				res := runCase(t, n, fam, nil, vals, seed, 60_000)
				if !res.AllDecided {
					t.Errorf("n=%d fd=%s seed=%d: not all decided (reason %s, steps %d, round %d)",
						n, fam, seed, res.Reason, res.Steps, res.MaxRound)
				}
			}
		}
	}
}

// TestConsensusToleratesCrashes is E7/E8: up to f = ⌊(n−1)/2⌋ crashes,
// including the round-1 coordinator, still decide.
func TestConsensusToleratesCrashes(t *testing.T) {
	cases := []struct {
		n     int
		crash []ioa.Loc
	}{
		{3, []ioa.Loc{0}}, // round-1 coordinator
		{3, []ioa.Loc{2}},
		{5, []ioa.Loc{0, 1}}, // first two coordinators
		{5, []ioa.Loc{3, 4}},
		{7, []ioa.Loc{0, 2, 4}},
	}
	for _, tc := range cases {
		for _, fam := range detFamilies() {
			for _, seed := range []int64{-1, 2} {
				vals := make([]int, tc.n)
				for i := range vals {
					vals[i] = (i + 1) % 2
				}
				res := runCase(t, tc.n, fam, tc.crash, vals, seed, 120_000)
				if !res.AllDecided {
					t.Errorf("n=%d fd=%s crash=%v seed=%d: not all decided (reason %s, round %d)",
						tc.n, fam, tc.crash, seed, res.Reason, res.MaxRound)
				}
			}
		}
	}
}

// TestConsensusValidityUnanimous: if everyone proposes v, the decision is v.
func TestConsensusValidityUnanimous(t *testing.T) {
	for _, v := range []int{0, 1} {
		vals := []int{v, v, v}
		res := runCase(t, 3, afd.FamilyOmega, nil, vals, -1, 20_000)
		want := map[int]string{0: "0", 1: "1"}[v]
		if res.Value != want {
			t.Errorf("unanimous %d decided %q", v, res.Value)
		}
	}
}

// TestConsensusManySeeds is schedule-diversity fuzzing: the spec holds for
// 30 random schedules with a crashing coordinator.
func TestConsensusManySeeds(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		runCase(t, 3, afd.FamilyEvP, []ioa.Loc{0}, []int{1, 0, 1}, seed, 120_000)
	}
}

// TestConsensusFreeEnvironment uses the unconstrained Algorithm-4
// environment (scheduler picks the proposals).
func TestConsensusFreeEnvironment(t *testing.T) {
	res := runCase(t, 3, afd.FamilyOmega, nil, nil, 7, 30_000)
	if !res.AllDecided {
		t.Errorf("free environment run did not decide: %+v", res.Reason)
	}
}

// TestNoDetectorBlocksOnCoordinatorCrash is the FLP-flavored negative
// control (E9): without failure-detector information the algorithm cannot
// tolerate even one crash — the run stalls with no decision, violating
// termination.
func TestNoDetectorBlocksOnCoordinatorCrash(t *testing.T) {
	res, err := Run(RunSpec{
		Build: BuildSpec{
			N:      3,
			Family: "", // no detector
			Crash:  []ioa.Loc{0},
			Values: []int{0, 1, 1},
		},
		Steps: 30_000,
		Seed:  -1, // no gate: the crash fires before any protocol message
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions != 0 {
		t.Fatalf("decided %d times without a detector despite coordinator crash", res.Decisions)
	}
	if res.Reason != sched.StopQuiescent {
		t.Fatalf("expected a stall (quiescent), got %s after %d steps", res.Reason, res.Steps)
	}
}

// TestNoDetectorDecidesFailureFree: the detector-free run decides when
// nothing crashes (the blocking above is due to the crash, not the harness).
func TestNoDetectorDecidesFailureFree(t *testing.T) {
	res, err := Run(RunSpec{
		Build: BuildSpec{N: 3, Family: "", Crash: nil, Values: []int{1, 1, 0}},
		Steps: 30_000,
		Seed:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided {
		t.Fatalf("failure-free detector-free run did not decide: %s", res.Reason)
	}
}

func TestSpecCheckerRejectsViolations(t *testing.T) {
	spec := Spec{N: 2, F: 1}
	prop := func(i ioa.Loc, v string) ioa.Action { return ioa.EnvInput(system.ActNamePropose, i, v) }
	dec := func(i ioa.Loc, v string) ioa.Action { return ioa.EnvOutput(system.ActNameDecide, i, v) }

	tests := []struct {
		name string
		t    trace.T
		want string
	}{
		{"agreement", trace.T{prop(0, "0"), prop(1, "1"), dec(0, "0"), dec(1, "1")}, "agreement"},
		{"validity", trace.T{prop(0, "0"), prop(1, "0"), dec(0, "1")}, "validity"},
		{"twice", trace.T{prop(0, "0"), prop(1, "0"), dec(0, "0"), dec(0, "0")}, "termination"},
		{"crash validity", trace.T{prop(0, "0"), prop(1, "0"), ioa.Crash(1), dec(1, "0")}, "crash validity"},
		{"termination", trace.T{prop(0, "0"), prop(1, "0"), dec(0, "0")}, "termination"},
	}
	for _, tc := range tests {
		err := spec.CheckGuarantees(tc.t, true)
		if err == nil {
			t.Errorf("%s: violation accepted", tc.name)
		}
	}
}

func TestSpecAssumptions(t *testing.T) {
	spec := Spec{N: 2, F: 0}
	prop := func(i ioa.Loc, v string) ioa.Action { return ioa.EnvInput(system.ActNamePropose, i, v) }

	if err := spec.CheckAssumptions(trace.T{prop(0, "0"), prop(0, "1"), prop(1, "0")}); err == nil {
		t.Error("double proposal accepted")
	}
	if err := spec.CheckAssumptions(trace.T{prop(0, "0")}); err == nil {
		t.Error("silent live location accepted")
	}
	if err := spec.CheckAssumptions(trace.T{prop(0, "0"), prop(1, "0"), ioa.Crash(1)}); err == nil {
		t.Error("crash beyond f accepted")
	}
	if err := spec.CheckAssumptions(trace.T{ioa.Crash(0), prop(0, "0"), prop(1, "0")}); err == nil {
		t.Error("propose after crash accepted")
	}
	// Vacuous membership: assumption violation makes Check pass.
	if err := spec.Check(trace.T{prop(0, "0")}, true); err != nil {
		t.Errorf("vacuous membership should pass: %v", err)
	}
}

func TestSuspectorAdapters(t *testing.T) {
	s := NewSetSuspector()
	if s.Suspects(0) {
		t.Error("fresh set suspector must trust everyone")
	}
	s.Update(ioa.FDOutput(afd.FamilyP, 0, "{1,2}"))
	if !s.Suspects(1) || !s.Suspects(2) || s.Suspects(0) {
		t.Error("set suspector wrong after update")
	}
	s.Update(ioa.FDOutput(afd.FamilyP, 0, "bogus"))
	if !s.Suspects(1) {
		t.Error("malformed payload must not clear suspicions")
	}
	c := s.Clone()
	s.Update(ioa.FDOutput(afd.FamilyP, 0, "{}"))
	if !c.Suspects(1) || s.Suspects(1) {
		t.Error("clone entangled with original")
	}

	l := NewLeaderSuspector()
	if l.Suspects(2) {
		t.Error("fresh leader suspector must trust everyone")
	}
	if l.Leader() != ioa.NoLoc {
		t.Error("fresh leader must be NoLoc")
	}
	l.Update(ioa.FDOutput(afd.FamilyOmega, 0, "1"))
	if l.Suspects(1) || !l.Suspects(0) || !l.Suspects(2) {
		t.Error("leader suspector wrong after update")
	}
	if l.Leader() != 1 {
		t.Errorf("Leader = %v", l.Leader())
	}

	var nv NeverSuspector
	nv.Update(ioa.FDOutput(afd.FamilyOmega, 0, "1"))
	if nv.Suspects(0) {
		t.Error("never suspector suspected someone")
	}
	if string(nv.Clone().AppendEncode(nil)) != "N" {
		t.Error("never suspector encoding")
	}
}

func TestCTMachineCloneAndEncode(t *testing.T) {
	m := NewCTMachine(3, 0, NewSetSuspector())
	e := system.NewEffects(0)
	m.OnEnvInput(system.ActNamePropose, "1", e)
	c := m.Clone().(*CTMachine)
	if string(c.AppendEncode(nil)) != string(m.AppendEncode(nil)) {
		t.Fatal("clone must encode equal")
	}
	e2 := system.NewEffects(0)
	m.OnReceive(1, "E|1|0|0", e2)
	if string(c.AppendEncode(nil)) == string(m.AppendEncode(nil)) {
		t.Fatal("clone entangled with original")
	}
}

func TestCTCoordinatorDecidesAloneN1(t *testing.T) {
	res := runCase(t, 1, afd.FamilyOmega, nil, []int{1}, -1, 1_000)
	if !res.AllDecided || res.Value != "1" {
		t.Fatalf("n=1 should decide its own value: %+v", res)
	}
}

func TestSuspectorForUnknownFamily(t *testing.T) {
	if _, err := SuspectorFor("FD-Σ"); err == nil {
		t.Fatal("Σ has no suspector adapter; must error")
	}
	if _, err := Procs(3, "FD-Σ"); err == nil {
		t.Fatal("Procs must propagate adapter errors")
	}
}

func TestBuildRejectsBadValues(t *testing.T) {
	_, err := Build(BuildSpec{N: 3, Family: afd.FamilyOmega, Values: []int{1}})
	if err == nil {
		t.Fatal("mismatched Values length must fail")
	}
}
