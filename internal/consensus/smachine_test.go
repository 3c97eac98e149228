package consensus

import (
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/system"
)

// runSCase runs the S-algorithm under one configuration and validates it
// against the Section-9.1 specification with the liberal crash bound the
// algorithm supports (f ≤ n−1).
func runSCase(t *testing.T, n int, family string, crash []ioa.Loc, values []int, seed int64, gate int) *Result {
	t.Helper()
	res, err := Run(RunSpec{
		Build: BuildSpec{
			N:      n,
			Family: family,
			Algo:   "s",
			Det:    detectorFor(t, family, n),
			Crash:  crash,
			Values: values,
		},
		Steps:     200_000,
		Seed:      seed,
		CrashGate: gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{N: n, F: n - 1}
	io := ProjectIO(res.Trace)
	if err := spec.CheckAssumptions(io); err != nil {
		t.Fatalf("assumptions violated: %v", err)
	}
	if err := spec.CheckGuarantees(io, res.AllDecided); err != nil {
		t.Fatalf("n=%d fd=%s crash=%v seed=%d: %v\ntail: %v", n, family, crash, seed, err, tail(io, 12))
	}
	return res
}

// TestSAlgorithmFailureFree: P and S drive the flooding algorithm to a
// decision with no crashes.
func TestSAlgorithmFailureFree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		for _, fam := range []string{afd.FamilyP, afd.FamilyS} {
			for _, seed := range []int64{-1, 1} {
				vals := make([]int, n)
				for i := range vals {
					vals[i] = (i + 1) % 2
				}
				res := runSCase(t, n, fam, nil, vals, seed, 0)
				if !res.AllDecided {
					t.Errorf("n=%d fd=%s seed=%d: no decision (%s)", n, fam, seed, res.Reason)
				}
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
		for _, seed := range []int64{-1, 2, 5} {
			vals := make([]int, tc.n)
			for i := range vals {
				vals[i] = i % 2
			}
			res := runSCase(t, tc.n, afd.FamilyP, tc.crash, vals, seed, 15)
			if !res.AllDecided {
				t.Errorf("n=%d crash=%v seed=%d: no decision (%s)", tc.n, tc.crash, seed, res.Reason)
			}
		}
	}
}

// TestSAlgorithmManySeeds fuzzes schedules and crash timing.
func TestSAlgorithmManySeeds(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		gate := int(seed%8) * 7
		runSCase(t, 3, afd.FamilyP, []ioa.Loc{1}, []int{1, 0, 1}, seed, gate)
	}
}

// TestSAlgorithmUnanimity: unanimous proposals decide that value.
func TestSAlgorithmUnanimity(t *testing.T) {
	for _, v := range []int{0, 1} {
		res := runSCase(t, 3, afd.FamilyP, nil, []int{v, v, v}, -1, 0)
		want := map[int]string{0: "0", 1: "1"}[v]
		if res.Value != want {
			t.Errorf("unanimous %d decided %q", v, res.Value)
		}
	}
}

func TestSProcsRejectsLeaderDetectors(t *testing.T) {
	if _, err := SProcs(3, afd.FamilyOmega); err == nil {
		t.Fatal("Ω has no suspicion sets; SProcs must refuse it")
	}
	if _, err := SProcs(3, ""); err == nil {
		t.Fatal("the S algorithm cannot run detector-free")
	}
}

func TestSMachineCloneEncode(t *testing.T) {
	m := NewSMachine(3, 0, NewSetSuspector())
	e := system.NewEffects(0)
	m.OnEnvInput(system.ActNamePropose, "1", e)
	c := m.Clone().(*SMachine)
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
	res := runSCase(t, 1, afd.FamilyP, nil, []int{1}, -1, 0)
	if !res.AllDecided || res.Value != "1" {
		t.Fatalf("n=1 must decide its own value: %+v", res)
	}
}
