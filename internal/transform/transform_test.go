package transform

import (
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/trace"
)

// sourceFor returns the standard detector for a family.
func sourceFor(t *testing.T, family string, n int) afd.Detector {
	t.Helper()
	d, err := afd.Lookup(family, n)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCatalogReductionsProduceAdmissibleTargets is E6's core assertion:
// every catalog reduction, fed its source detector's canonical outputs,
// produces a trace the *target* detector's checker accepts, under several
// fault patterns and schedules.
func TestCatalogReductionsProduceAdmissibleTargets(t *testing.T) {
	const n = 4
	w := afd.DefaultWindow()
	plans := [][]ioa.Loc{nil, {0}, {3}, {0, 3}}
	for _, l := range Catalog() {
		src := sourceFor(t, l.From, n)
		tgt := sourceFor(t, l.To, n)
		for pi, plan := range plans {
			for _, seed := range []int64{-1, 5} {
				tr, err := Run(src, l.Procs(n), l.To, RunSpec{
					N: n, Crash: plan, Seed: seed, Steps: 1200, CrashGate: 100,
				})
				if err != nil {
					t.Fatalf("%s plan %d: %v", l.Name, pi, err)
				}
				if err := tgt.Check(tr, n, w); err != nil {
					t.Errorf("%s plan %d seed %d: target checker rejects: %v",
						l.Name, pi, seed, err)
				}
			}
		}
	}
}

func TestOmegaToOmegaKAndPsiK(t *testing.T) {
	const n, k = 4, 2
	w := afd.DefaultWindow()
	cases := []struct {
		l   Local
		tgt afd.Detector
	}{
		{OmegaToOmegaK(k), afd.OmegaK{K: k}},
		{PToPsiK(k), afd.PsiK{K: k}},
	}
	for _, tc := range cases {
		src := sourceFor(t, tc.l.From, n)
		for _, plan := range [][]ioa.Loc{nil, {3}} {
			tr, err := Run(src, tc.l.Procs(n), tc.l.To, RunSpec{
				N: n, Crash: plan, Seed: -1, Steps: 1200, CrashGate: 100,
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.l.Name, err)
			}
			if err := tc.tgt.Check(tr, n, w); err != nil {
				t.Errorf("%s (plan %v): %v", tc.l.Name, plan, err)
			}
		}
	}
}

// TestGossipBoostsWeakToStrongCompleteness feeds the weakly complete W
// automaton (only min-live reports suspicions) through the gossip reduction
// and checks the result against the *strong* detector S — the W→S boost.
func TestGossipBoostsWeakToStrongCompleteness(t *testing.T) {
	const n = 4
	w := afd.DefaultWindow()
	g := Gossip{From: afd.FamilyW, To: afd.FamilyS}
	src := sourceFor(t, afd.FamilyW, n)
	for _, plan := range [][]ioa.Loc{{3}, {1, 3}} {
		tr, err := Run(src, g.Procs(n), afd.FamilyS, RunSpec{
			N: n, Crash: plan, Seed: -1, Steps: 4000, CrashGate: 200, WithChannels: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := afd.Standard(n)[afd.FamilyS].Check(tr, n, w); err != nil {
			t.Errorf("gossip W→S (plan %v): %v", plan, err)
		}
	}
}

// TestGossipEventualVariant boosts ◇W to ◇S.
func TestGossipEventualVariant(t *testing.T) {
	const n = 3
	g := Gossip{From: afd.FamilyEvW, To: afd.FamilyEvS}
	src := sourceFor(t, afd.FamilyEvW, n)
	tr, err := Run(src, g.Procs(n), afd.FamilyEvS, RunSpec{
		N: n, Crash: []ioa.Loc{2}, Seed: -1, Steps: 4000, CrashGate: 200, WithChannels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := afd.Standard(n)[afd.FamilyEvS].Check(tr, n, afd.DefaultWindow()); err != nil {
		t.Errorf("gossip ◇W→◇S: %v", err)
	}
}

// TestChainTransitivity is Theorem 15 executable: P→◇P→Ω chained equals a
// valid Ω implementation.
func TestChainTransitivity(t *testing.T) {
	const n = 3
	var pToEvP, evPToOmega Local
	for _, l := range Catalog() {
		switch l.Name {
		case "P→◇P":
			pToEvP = l
		case "◇P→Ω":
			evPToOmega = l
		}
	}
	chain := Chain{pToEvP, evPToOmega}
	if err := chain.Validate(); err != nil {
		t.Fatal(err)
	}
	procs, err := chain.Procs(n)
	if err != nil {
		t.Fatal(err)
	}
	src := sourceFor(t, afd.FamilyP, n)
	tr, err := Run(src, procs, afd.FamilyOmega, RunSpec{
		N: n, Crash: []ioa.Loc{0}, Seed: -1, Steps: 2000, CrashGate: 100,
		Hide: []string{afd.FamilyEvP}, // the intermediate family (Section 2.3 hiding)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := (afd.Omega{}).Check(tr, n, afd.DefaultWindow()); err != nil {
		t.Errorf("chained P→◇P→Ω: %v", err)
	}
	if got := chain.Names(); got != "P→◇P ∘ ◇P→Ω" {
		t.Errorf("Names = %q", got)
	}
}

// TestChainHidesIntermediateFamily: hiding removes the intermediate
// detector's outputs from the externally visible trace while the chain
// still works (the hidden actions keep synchronizing internally).
func TestChainHidesIntermediateFamily(t *testing.T) {
	const n = 3
	var pToEvP, evPToOmega Local
	for _, l := range Catalog() {
		switch l.Name {
		case "P→◇P":
			pToEvP = l
		case "◇P→Ω":
			evPToOmega = l
		}
	}
	procs, err := (Chain{pToEvP, evPToOmega}).Procs(n)
	if err != nil {
		t.Fatal(err)
	}
	src := sourceFor(t, afd.FamilyP, n)

	autos := []ioa.Automaton{src.Automaton(n)}
	autos = append(autos, procs...)
	autos = append(autos, system.NewCrash(system.NoFaults()))
	sys, err := ioa.NewSystem(autos...)
	if err != nil {
		t.Fatal(err)
	}
	sys.Hide(func(a ioa.Action) bool { return a.Kind == ioa.KindFD && a.Name == afd.FamilyEvP })
	sched.RoundRobin(sys, sched.Options{MaxSteps: 900})

	for _, a := range sys.Trace() {
		if a.Kind == ioa.KindFD && a.Name == afd.FamilyEvP {
			t.Fatalf("hidden intermediate event visible: %v", a)
		}
	}
	omega := trace.FD(sys.Trace(), afd.FamilyOmega)
	if err := (afd.Omega{}).Check(omega, n, afd.DefaultWindow()); err != nil {
		t.Fatalf("chain broken by hiding: %v", err)
	}
}

func TestChainValidateRejectsMismatch(t *testing.T) {
	c := Chain{
		{Name: "a", From: afd.FamilyP, To: afd.FamilyEvP, F: identity},
		{Name: "b", From: afd.FamilyOmega, To: afd.FamilyAntiOmega, F: identity},
	}
	if err := c.Validate(); err == nil {
		t.Fatal("mismatched chain must fail validation")
	}
	if _, err := c.Procs(3); err == nil {
		t.Fatal("Procs must propagate validation failure")
	}
}

func TestLocalMachineDropsMalformedPayload(t *testing.T) {
	l := Local{Name: "bad", From: afd.FamilyP, To: afd.FamilyOmega, F: suspicionToLeader}
	m := &localMachine{cfg: l, n: 3}
	e := system.NewEffects(0)
	m.OnFD(ioa.FDOutput(afd.FamilyP, 0, "not-a-set"), e)
	if m.errs != 1 {
		t.Fatalf("errs = %d, want 1", m.errs)
	}
	if len(e.Pending()) != 0 {
		t.Fatal("malformed payload must not produce an output")
	}
	if string(m.AppendEncode(nil)) == string((&localMachine{cfg: l, n: 3}).AppendEncode(nil)) {
		t.Error("error count must be part of the encoding")
	}
}
