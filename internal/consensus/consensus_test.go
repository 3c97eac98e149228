package consensus_test

import (
	"fmt"
	"testing"

	"repro/internal/afd"
	"repro/internal/chaos"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/trace"
)

// detFamilies are the detector classes the CT algorithm is exercised with.
func detFamilies() []string {
	return []string{afd.FamilyP, afd.FamilyEvP, afd.FamilyEvS, afd.FamilyOmega}
}

// withValues gives the chaos target ID kind+family the @ proposals vals.
func withValues(kind, family string, vals []int) string {
	id := []byte(kind + family + "@")
	for _, v := range vals {
		id = append(id, byte('0'+v))
	}
	return string(id)
}

// judge executes r with the chaos target id and returns its verdict and
// what is wrong with the run, if anything: an error building or running
// it, a trace outside the Section-9.1 environment assumptions at the
// target's crash bound (a harness bug), or the target's checker's verdict,
// which enforces the guarantees under that bound (termination included,
// since every scheduler here is fair).
func judge(id string, r chaos.Run) (chaos.Verdict, error) {
	v, _, err := executeRounds(id, r)
	if err != nil {
		return v, err
	}
	io := consensus.ProjectIO(v.Trace)
	if err := (consensus.Spec{N: r.N, F: v.Run.Target.MaxT(r.N)}).CheckAssumptions(io); err != nil {
		return v, fmt.Errorf("%s: assumptions violated (harness bug): %w", id, err)
	}
	if v.Failed() {
		return v, fmt.Errorf("%s crash=%v %s seed=%d gate=%d: %w\ntrace tail: %v",
			id, r.Plan.Crash, r.Sched, r.Seed, r.Gates.CrashAfter, v.Err, tail(io, 12))
	}
	return v, nil
}

// runCase is judge that stops the test on a faulty run.
func runCase(t *testing.T, id string, r chaos.Run) chaos.Verdict {
	t.Helper()
	v, err := judge(id, r)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// fair is the round-robin schedule and the random one of seed.
func fair(seed int64) []chaos.Run {
	return []chaos.Run{{Sched: chaos.SchedRoundRobin}, {Sched: chaos.SchedRandom, Seed: seed}}
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
			for _, r := range fair(1) {
				// The target's default proposals are 0,1,0,1,….
				r.N, r.Steps = n, 60_000
				runCase(t, "consensus:"+fam, r)
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
			vals := make([]int, tc.n)
			for i := range vals {
				vals[i] = (i + 1) % 2
			}
			for _, r := range fair(2) {
				r.N, r.Plan, r.Gates, r.Steps = tc.n, system.CrashOf(tc.crash...), crashGate(30), 120_000
				runCase(t, withValues("consensus:", fam, vals), r)
			}
		}
	}
}

// TestConsensusValidityUnanimous: if everyone proposes v, the decision is v.
func TestConsensusValidityUnanimous(t *testing.T) {
	for _, v := range []int{0, 1} {
		vals := []int{v, v, v}
		got := value(runCase(t, withValues("consensus:", afd.FamilyOmega, vals), chaos.Run{N: 3, Steps: 20_000}))
		want := map[int]string{0: "0", 1: "1"}[v]
		if got != want {
			t.Errorf("unanimous %d decided %q", v, got)
		}
	}
}

// TestConsensusManySeeds is schedule-diversity fuzzing: the spec holds for
// 30 random schedules with a crashing coordinator.
func TestConsensusManySeeds(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		runCase(t, "consensus:FD-◇P@101", chaos.Run{
			N: 3, Plan: system.CrashOf(0), Gates: crashGate(30), Sched: chaos.SchedRandom, Seed: seed, Steps: 120_000,
		})
	}
}

// TestConsensusFreeEnvironment uses the unconstrained Algorithm-4
// environment (scheduler picks the proposals), which no chaos target
// composes.  It is the one run here in which the environment itself could
// break the assumptions (proposing twice, or after a crash), so they are
// checked before the guarantees.
func TestConsensusFreeEnvironment(t *testing.T) {
	sys, stop := composed(afd.FamilyOmega, system.ConsensusEnvs(3))
	res := sched.Random(sys, 7, sched.Options{MaxSteps: 30_000, Stop: stop})
	spec, io := consensus.Spec{N: 3, F: 1}, consensus.ProjectIO(sys.Trace())
	if err := spec.CheckAssumptions(io); err != nil {
		t.Fatalf("assumptions violated (harness bug): %v", err)
	}
	if err := spec.CheckGuarantees(io, true); err != nil {
		t.Fatal(err)
	}
	if res.Reason != sched.StopCondition {
		t.Errorf("free environment run did not decide: %s", res.Reason)
	}
}

// TestNoDetectorBlocksOnCoordinatorCrash is the FLP-flavored negative
// control (E9): without failure-detector information the algorithm cannot
// tolerate even one crash — the run stalls with no decision, violating
// termination.
func TestNoDetectorBlocksOnCoordinatorCrash(t *testing.T) {
	sys, stop := composed("", system.ConsensusEnvsFixed([]int{0, 1, 1}), 0)
	// Round-robin with no gate: the crash fires before any protocol message.
	res := sched.RoundRobin(sys, sched.Options{MaxSteps: 30_000, Stop: stop})
	if decs := consensus.Decisions(sys.Trace()); len(decs) != 0 {
		t.Fatalf("decided %d times without a detector despite coordinator crash", len(decs))
	}
	if res.Reason != sched.StopQuiescent {
		t.Fatalf("expected a stall (quiescent), got %s after %d steps", res.Reason, res.Steps)
	}
}

// TestNoDetectorDecidesFailureFree: the detector-free run decides when
// nothing crashes (the blocking above is due to the crash, not the harness).
func TestNoDetectorDecidesFailureFree(t *testing.T) {
	sys, stop := composed("", system.ConsensusEnvsFixed([]int{1, 1, 0}))
	if res := sched.RoundRobin(sys, sched.Options{MaxSteps: 30_000, Stop: stop}); res.Reason != sched.StopCondition {
		t.Fatalf("failure-free detector-free run did not decide: %s", res.Reason)
	}
}

func TestSpecCheckerRejectsViolations(t *testing.T) {
	spec := consensus.Spec{N: 2, F: 1}
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
	spec := consensus.Spec{N: 2, F: 0}
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
	s := consensus.NewSetSuspector()
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

	l := consensus.NewLeaderSuspector()
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

	var nv consensus.NeverSuspector
	nv.Update(ioa.FDOutput(afd.FamilyOmega, 0, "1"))
	if nv.Suspects(0) {
		t.Error("never suspector suspected someone")
	}
	if string(nv.Clone().AppendEncode(nil)) != "N" {
		t.Error("never suspector encoding")
	}
}

func TestCTMachineCloneAndEncode(t *testing.T) {
	m := consensus.NewCTMachine(3, 0, consensus.NewSetSuspector())
	e := system.NewEffects(0)
	m.OnEnvInput(system.ActNamePropose, "1", e)
	c := m.Clone().(*consensus.CTMachine)
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
	v := runCase(t, "consensus:FD-Ω@1", chaos.Run{N: 1, Steps: 1_000})
	if !allDecided(v) || value(v) != "1" {
		t.Fatalf("n=1 should decide its own value: %s after %d steps", v.Reason, v.Steps)
	}
}

func TestSuspectorForUnknownFamily(t *testing.T) {
	if _, err := consensus.SuspectorFor("FD-Σ"); err == nil {
		t.Fatal("Σ has no suspector adapter; must error")
	}
	if _, err := consensus.Procs(3, "FD-Σ"); err == nil {
		t.Fatal("Procs must propagate adapter errors")
	}
}

func TestBuildRejectsBadValues(t *testing.T) {
	target, err := chaos.ParseTarget("consensus:FD-Ω@1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (chaos.Run{Target: target, N: 3}).Build(); err == nil {
		t.Fatal("one proposal for three locations must fail")
	}
}
