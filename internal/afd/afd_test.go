package afd

import (
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// ct returns the zoo's Chandra-Toueg row for family.
func ct(family string) ctDetector { return Standard(1)[family].(ctDetector) }

// faultPatterns are the fault patterns every detector is exercised under.
func faultPatterns(n int) [][]ioa.Loc {
	return [][]ioa.Loc{
		nil,                      // failure-free
		{ioa.Loc(n - 1)},         // one crash, max location
		{0},                      // one crash, min location (Ω leader moves)
		{0, ioa.Loc(n - 1)},      // two crashes
		{ioa.Loc(1), ioa.Loc(0)}, // two crashes, reverse order
	}
}

// TestCanonicalAutomataSatisfySpecs is E2/E3/E4's core assertion: for every
// detector in the zoo, under every fault pattern, both fair (round-robin)
// and random schedules produce traces the detector's own checker accepts.
func TestCanonicalAutomataSatisfySpecs(t *testing.T) {
	const n = 4
	w := DefaultWindow()
	for family, d := range Standard(n) {
		for pi, plan := range faultPatterns(n) {
			for _, seed := range []int64{-1, 1, 2} {
				tr, err := RunCanonical(d, RunSpec{
					N: n, Crash: plan, Seed: seed, Steps: 400, CrashGate: 40,
				})
				if err != nil {
					t.Fatalf("%s plan %d seed %d: run: %v", family, pi, seed, err)
				}
				if err := d.Check(tr, n, w); err != nil {
					t.Errorf("%s plan %d seed %d: checker rejects canonical trace: %v",
						family, pi, seed, err)
				}
			}
		}
	}
}

// TestClosureProperties is E14: samplings and constrained reorderings of
// admissible traces remain admissible for every detector.
func TestClosureProperties(t *testing.T) {
	const n = 3
	w := DefaultWindow()
	for family, d := range Standard(n) {
		tr, err := RunCanonical(d, RunSpec{
			N: n, Crash: []ioa.Loc{2}, Seed: -1, Steps: 120, CrashGate: 30,
		})
		if err != nil {
			t.Fatalf("%s: run: %v", family, err)
		}
		if err := d.Check(tr, n, w); err != nil {
			t.Fatalf("%s: base trace rejected: %v", family, err)
		}
		if err := CheckClosureUnderSampling(d, tr, n, w, 20, 7); err != nil {
			t.Errorf("%s: %v", family, err)
		}
		if err := CheckClosureUnderReordering(d, tr, n, w, 20, 7); err != nil {
			t.Errorf("%s: %v", family, err)
		}
	}
}

func TestCheckValidityRejectsOutputAfterCrash(t *testing.T) {
	tr := trace.T{
		ioa.FDOutput(FamilyP, 0, "{}"),
		ioa.Crash(1),
		ioa.FDOutput(FamilyP, 1, "{}"), // violation
		ioa.FDOutput(FamilyP, 2, "{1}"),
	}
	if err := CheckValidity(tr, 3, FamilyP, DefaultWindow()); err == nil {
		t.Fatal("output after crash must be rejected")
	}
}

func TestCheckValidityRequiresLiveOutputs(t *testing.T) {
	tr := trace.T{ioa.FDOutput(FamilyP, 0, "{}")}
	// Location 1 is live but silent.
	if err := CheckValidity(tr, 2, FamilyP, DefaultWindow()); err == nil {
		t.Fatal("silent live location must be rejected")
	}
}

func TestCheckValidityRejectsForeignEvents(t *testing.T) {
	tr := trace.T{ioa.FDOutput(FamilyP, 0, "{}"), ioa.Send(0, 1, "m")}
	if err := CheckValidity(tr, 1, FamilyP, DefaultWindow()); err == nil {
		t.Fatal("non-FD, non-crash event must be rejected (crash exclusivity)")
	}
}

func TestCheckValidityRejectsOutOfRange(t *testing.T) {
	tr := trace.T{ioa.FDOutput(FamilyP, 7, "{}")}
	if err := CheckValidity(tr, 2, FamilyP, DefaultWindow()); err == nil {
		t.Fatal("out-of-range location must be rejected")
	}
}

func TestOmegaCheckerRejectsFlappingLeader(t *testing.T) {
	tr := trace.T{
		ioa.FDOutput(FamilyOmega, 0, "0"),
		ioa.FDOutput(FamilyOmega, 1, "1"),
		ioa.FDOutput(FamilyOmega, 0, "1"),
		ioa.FDOutput(FamilyOmega, 1, "0"),
	}
	if err := (Omega{}).Check(tr, 2, DefaultWindow()); err == nil {
		t.Fatal("Ω trace with no stable live leader must be rejected")
	}
}

func TestOmegaCheckerRejectsFaultyLeader(t *testing.T) {
	tr := trace.T{
		ioa.FDOutput(FamilyOmega, 1, "0"),
		ioa.Crash(0),
		ioa.FDOutput(FamilyOmega, 1, "0"), // leader 0 is faulty
		ioa.FDOutput(FamilyOmega, 1, "0"),
	}
	if err := (Omega{}).Check(tr, 2, DefaultWindow()); err == nil {
		t.Fatal("Ω trace stabilizing to a faulty leader must be rejected")
	}
}

func TestOmegaCheckerAllCrashedVacuous(t *testing.T) {
	tr := trace.T{ioa.FDOutput(FamilyOmega, 0, "0"), ioa.Crash(0), ioa.Crash(1)}
	if err := (Omega{}).Check(tr, 2, DefaultWindow()); err != nil {
		t.Fatalf("TΩ only constrains traces with live locations: %v", err)
	}
}

func TestPerfectCheckerRejectsEarlySuspicion(t *testing.T) {
	tr := trace.T{
		ioa.FDOutput(FamilyP, 0, "{1}"), // suspects 1 before its crash
		ioa.Crash(1),
		ioa.FDOutput(FamilyP, 0, "{1}"),
	}
	if err := ct(FamilyP).Check(tr, 2, DefaultWindow()); err == nil {
		t.Fatal("P must reject suspicion before crash")
	}
}

func TestPerfectCheckerRejectsMissingSuspicion(t *testing.T) {
	tr := trace.T{
		ioa.Crash(1),
		ioa.FDOutput(FamilyP, 0, "{}"), // never suspects the crashed 1
	}
	if err := ct(FamilyP).Check(tr, 2, DefaultWindow()); err == nil {
		t.Fatal("P must reject missing eventual suspicion")
	}
}

func TestEvPerfectAcceptsWhatPRejects(t *testing.T) {
	// An inaccurate prefix followed by exact suspicion: in T◇P, not in TP.
	mk := func(family string) trace.T {
		return trace.T{
			ioa.FDOutput(family, 0, "{1}"), // early false suspicion
			ioa.Crash(1),
			ioa.FDOutput(family, 0, "{1}"),
			ioa.FDOutput(family, 0, "{1}"),
		}
	}
	if err := ct(FamilyEvP).Check(mk(FamilyEvP), 2, DefaultWindow()); err != nil {
		t.Fatalf("◇P must accept eventually accurate trace: %v", err)
	}
	if err := ct(FamilyP).Check(mk(FamilyP), 2, DefaultWindow()); err == nil {
		t.Fatal("P must reject the same shape")
	}
}

func TestStrongAcceptsWhatPerfectRejects(t *testing.T) {
	// Suspecting live location 2 early violates strong accuracy but not
	// weak accuracy as long as some live location (here 1) is never
	// suspected.
	mk := func(family string) trace.T {
		return trace.T{
			ioa.FDOutput(family, 0, "{2}"), // false suspicion of live 2
			ioa.Crash(3),
			ioa.FDOutput(family, 0, "{3}"),
			ioa.FDOutput(family, 1, "{3}"),
			ioa.FDOutput(family, 2, "{3}"),
		}
	}
	if err := ct(FamilyS).Check(mk(FamilyS), 4, DefaultWindow()); err != nil {
		t.Fatalf("S must accept weak-accuracy trace: %v", err)
	}
	if err := ct(FamilyP).Check(mk(FamilyP), 4, DefaultWindow()); err == nil {
		t.Fatal("P must reject false suspicion of a live location")
	}
}

func TestWeakCompletenessDistinguishesQFromP(t *testing.T) {
	// Only location 0 ever suspects the crashed 2: weakly but not strongly
	// complete.
	mk := func(family string) trace.T {
		return trace.T{
			ioa.Crash(2),
			ioa.FDOutput(family, 0, "{2}"),
			ioa.FDOutput(family, 1, "{}"),
			ioa.FDOutput(family, 0, "{2}"),
			ioa.FDOutput(family, 1, "{}"),
		}
	}
	if err := ct(FamilyQ).Check(mk(FamilyQ), 3, DefaultWindow()); err != nil {
		t.Fatalf("Q must accept weakly complete trace: %v", err)
	}
	if err := ct(FamilyP).Check(mk(FamilyP), 3, DefaultWindow()); err == nil {
		t.Fatal("P must reject weakly-but-not-strongly complete trace")
	}
}

func TestSigmaCheckerRejectsDisjointQuorums(t *testing.T) {
	tr := trace.T{
		ioa.FDOutput(FamilySigma, 0, "{0}"),
		ioa.FDOutput(FamilySigma, 1, "{1}"), // disjoint from {0}
	}
	if err := (Sigma{}).Check(tr, 2, DefaultWindow()); err == nil {
		t.Fatal("Σ must reject disjoint quorums")
	}
}

func TestSigmaCheckerRejectsDeadQuorums(t *testing.T) {
	tr := trace.T{
		ioa.FDOutput(FamilySigma, 0, "{0,1}"),
		ioa.Crash(1),
		ioa.FDOutput(FamilySigma, 0, "{0,1}"), // still includes faulty 1
	}
	if err := (Sigma{}).Check(tr, 2, DefaultWindow()); err == nil {
		t.Fatal("Σ must reject quorums that never shed faulty locations")
	}
}

func TestAntiOmegaRejectsCoveringAllLive(t *testing.T) {
	tr := trace.T{
		ioa.FDOutput(FamilyAntiOmega, 0, "0"),
		ioa.FDOutput(FamilyAntiOmega, 1, "1"),
		ioa.FDOutput(FamilyAntiOmega, 0, "1"),
		ioa.FDOutput(FamilyAntiOmega, 1, "0"),
	}
	if err := (AntiOmega{}).Check(tr, 2, DefaultWindow()); err == nil {
		t.Fatal("anti-Ω must reject traces whose suffix outputs every live location")
	}
}

func TestOmegaKRejectsWrongSize(t *testing.T) {
	tr := trace.T{
		ioa.FDOutput(FamilyOmegaK, 0, "{0}"),
		ioa.FDOutput(FamilyOmegaK, 1, "{0}"),
	}
	if err := (OmegaK{K: 2}).Check(tr, 2, DefaultWindow()); err == nil {
		t.Fatal("Ωk must reject sets of the wrong size")
	}
}

func TestOmegaKRejectsNoLiveMember(t *testing.T) {
	tr := trace.T{
		ioa.Crash(0),
		ioa.FDOutput(FamilyOmegaK, 1, "{0}"),
		ioa.FDOutput(FamilyOmegaK, 1, "{0}"),
	}
	if err := (OmegaK{K: 1}).Check(tr, 2, DefaultWindow()); err == nil {
		t.Fatal("Ωk must reject a stabilized set with no live member")
	}
}

func TestPsiKRejectsTooManyDisjointQuorums(t *testing.T) {
	tr := trace.T{
		ioa.FDOutput(FamilyPsiK, 0, "{0};{0}"),
		ioa.FDOutput(FamilyPsiK, 1, "{1};{0}"),
		ioa.FDOutput(FamilyPsiK, 2, "{2};{0}"),
		ioa.FDOutput(FamilyPsiK, 0, "{0};{0}"),
		ioa.FDOutput(FamilyPsiK, 1, "{1};{0}"),
		ioa.FDOutput(FamilyPsiK, 2, "{2};{0}"),
	}
	// Three pairwise-disjoint quorums with K=1 exceeds the K-intersection
	// bound (at most K disjoint).
	if err := (PsiK{K: 1}).Check(tr, 3, DefaultWindow()); err == nil {
		t.Fatal("Ψk must reject k+1 pairwise-disjoint quorums")
	}
}

func TestPsiKRejectsMalformedPayload(t *testing.T) {
	tr := trace.T{ioa.FDOutput(FamilyPsiK, 0, "{0}")}
	if err := (PsiK{K: 1}).Check(tr, 1, DefaultWindow()); err == nil {
		t.Fatal("Ψk must reject payloads without two components")
	}
}

// TestMaraboutRequiresClairvoyance is Section 3.4 made executable: the
// non-causal oracle satisfies the Marabout spec, while the best causal
// attempt (output crashset) violates it as soon as a crash follows an
// output.
func TestMaraboutRequiresClairvoyance(t *testing.T) {
	const n = 3
	run := func(auto ioa.Automaton, plan []ioa.Loc) trace.T {
		t.Helper()
		tr, err := RunAutomaton(auto, FamilyMarabout, plan, 100, 30)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	plan := []ioa.Loc{2}
	oracle := run(MaraboutOracle(n, plan), plan)
	if err := CheckMarabout(oracle, n, DefaultWindow()); err != nil {
		t.Fatalf("clairvoyant oracle must satisfy Marabout: %v", err)
	}
	honest := run(MaraboutHonest(n), plan)
	if err := CheckMarabout(honest, n, DefaultWindow()); err == nil {
		t.Fatal("causal automaton satisfied Marabout; it must not (it cannot predict crashes)")
	} else if !strings.Contains(err.Error(), "final fault set") {
		t.Fatalf("unexpected rejection reason: %v", err)
	}
}

func TestRegistry(t *testing.T) {
	if _, err := Lookup(FamilyOmega, 3); err != nil {
		t.Fatalf("Lookup(Ω): %v", err)
	}
	if _, err := Lookup("FD-nope", 3); err == nil {
		t.Fatal("Lookup of unknown family must fail")
	}
	fams := Families(3)
	if len(fams) != 13 {
		t.Fatalf("Families = %d entries, want 13", len(fams))
	}
	for i := 1; i < len(fams); i++ {
		if fams[i-1] >= fams[i] {
			t.Fatal("Families must be sorted")
		}
	}
}

func TestGeneratorCrashDisablesTask(t *testing.T) {
	g := NewGenerator("FD-T", 2, func(*GenState, ioa.Loc) string { return "x" })
	if _, ok := g.Enabled(0); !ok {
		t.Fatal("task should be enabled initially")
	}
	g.Input(ioa.Crash(0))
	if _, ok := g.Enabled(0); ok {
		t.Fatal("crash must disable the location's output task")
	}
	if _, ok := g.Enabled(1); !ok {
		t.Fatal("other locations unaffected")
	}
}

func TestGeneratorCloneAndEncode(t *testing.T) {
	g := NewGenerator("FD-T", 2, func(*GenState, ioa.Loc) string { return "x" })
	c := g.Clone()
	if string(c.AppendEncode(nil)) != string(g.AppendEncode(nil)) {
		t.Fatal("clone must encode equal")
	}
	g.Input(ioa.Crash(0))
	if string(c.AppendEncode(nil)) == string(g.AppendEncode(nil)) {
		t.Fatal("clone shares state")
	}
}

func TestGenStateHelpers(t *testing.T) {
	st := &GenState{N: 3, Crashed: ioa.LocSetOfMask(0b001), Emitted: make([]int, 3)}
	if st.MinLive() != 1 {
		t.Errorf("MinLive = %v", st.MinLive())
	}
	if got := st.LiveSet().String(); got != "{1,2}" {
		t.Errorf("LiveSet = %s, want {1,2}", got)
	}
	all := &GenState{N: 1, Crashed: ioa.LocSetOfMask(0b1), Emitted: []int{0}}
	if all.MinLive() != ioa.NoLoc {
		t.Errorf("MinLive with all crashed = %v", all.MinLive())
	}
	if got := all.LiveSet().String(); got != "{}" {
		t.Errorf("LiveSet with all crashed = %s, want {}", got)
	}
}
