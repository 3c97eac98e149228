package consensus_test

import (
	"testing"

	"repro/internal/afd"
	"repro/internal/chaos"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/system"
)

// runSCase runs the S-algorithm over family with proposals vals under r
// and validates it against the Section-9.1 specification with the liberal
// crash bound the algorithm supports (f ≤ n−1): the smachine target's.
func runSCase(t *testing.T, family string, vals []int, r chaos.Run) chaos.Verdict {
	t.Helper()
	r.N = len(vals)
	if r.Steps == 0 {
		r.Steps = 200_000
	}
	return runCase(t, withValues("smachine:", family, vals), r)
}

// TestSAlgorithmFailureFree: P and S drive the flooding algorithm to a
// decision with no crashes.
func TestSAlgorithmFailureFree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		for _, fam := range []string{afd.FamilyP, afd.FamilyS} {
			for _, r := range fair(1) {
				vals := make([]int, n)
				for i := range vals {
					vals[i] = (i + 1) % 2
				}
				runSCase(t, fam, vals, r)
			}
		}
	}
}

// TestSAlgorithmToleratesManyCrashes: unlike the majority-based CTMachine,
// the S algorithm rides out f = n−1 crashes.
func TestSAlgorithmToleratesManyCrashes(t *testing.T) {
	cases := []struct {
		n     int
		crash []ioa.Loc
	}{
		{2, []ioa.Loc{1}},
		{3, []ioa.Loc{0, 1}},       // only location 2 survives
		{4, []ioa.Loc{0, 2, 3}},    // only location 1 survives
		{5, []ioa.Loc{4, 3, 2, 1}}, // only location 0 survives
	}
	for _, tc := range cases {
		vals := make([]int, tc.n)
		for i := range vals {
			vals[i] = i % 2
		}
		for _, r := range append(fair(2), chaos.Run{Sched: chaos.SchedRandom, Seed: 5}) {
			r.Plan, r.Gates = system.CrashOf(tc.crash...), crashGate(15)
			runSCase(t, afd.FamilyP, vals, r)
		}
	}
}

// TestSAlgorithmManySeeds fuzzes schedules and crash timing.
func TestSAlgorithmManySeeds(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		runSCase(t, afd.FamilyP, []int{1, 0, 1}, chaos.Run{
			Plan: system.CrashOf(1), Gates: crashGate(int(seed%8) * 7), Sched: chaos.SchedRandom, Seed: seed,
		})
	}
}

// TestSAlgorithmUnanimity: unanimous proposals decide that value.
func TestSAlgorithmUnanimity(t *testing.T) {
	for _, v := range []int{0, 1} {
		got := value(runSCase(t, afd.FamilyP, []int{v, v, v}, chaos.Run{}))
		want := map[int]string{0: "0", 1: "1"}[v]
		if got != want {
			t.Errorf("unanimous %d decided %q", v, got)
		}
	}
}

func TestSProcsRejectsLeaderDetectors(t *testing.T) {
	if _, err := consensus.SProcs(3, afd.FamilyOmega); err == nil {
		t.Fatal("Ω has no suspicion sets; SProcs must refuse it")
	}
	if _, err := consensus.SProcs(3, ""); err == nil {
		t.Fatal("the S algorithm cannot run detector-free")
	}
}

func TestSMachineCloneEncode(t *testing.T) {
	m := consensus.NewSMachine(3, 0, consensus.NewSetSuspector())
	e := system.NewEffects(0)
	m.OnEnvInput(system.ActNamePropose, "1", e)
	c := m.Clone().(*consensus.SMachine)
	if string(c.AppendEncode(nil)) != string(m.AppendEncode(nil)) {
		t.Fatal("clone must encode equal")
	}
	e2 := system.NewEffects(0)
	m.OnReceive(1, "R|1|0", e2)
	if string(c.AppendEncode(nil)) == string(m.AppendEncode(nil)) {
		t.Fatal("clone entangled")
	}
}

func TestSMachineSingleLocation(t *testing.T) {
	v := runSCase(t, afd.FamilyP, []int{1}, chaos.Run{})
	if !allDecided(v) || value(v) != "1" {
		t.Fatalf("n=1 must decide its own value: %s after %d steps", v.Reason, v.Steps)
	}
}
