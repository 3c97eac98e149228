package afd_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/afd"
	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/trace"
)

// detectorRun is the chaos run of family's canonical automaton at n
// locations: crash's locations crash, one every crashGate events, within
// steps events of a round-robin schedule.  Its system holds only that
// automaton and the crash automaton, so its trace is Iˆ and family's
// outputs.
func detectorRun(family string, n int, crash []ioa.Loc, steps, crashGate int) chaos.Run {
	return chaos.Run{
		Target: chaos.DetectorTarget{Family: family}, N: n, Plan: system.CrashOf(crash...),
		Gates: chaos.GateSpec{CrashAfter: crashGate, CrashGap: crashGate}, Steps: steps,
	}
}

// random switches r to the random scheduler with seed.
func random(r chaos.Run, seed int64) chaos.Run {
	r.Sched, r.Seed = chaos.SchedRandom, seed
	return r
}

// execute runs r and returns its trace.  It fails t on an infrastructure
// error and on a trace the family's own checker rejects: chaos.Execute
// judges every round-robin or random detector run with afd.DefaultWindow.
func execute(t testing.TB, r chaos.Run) trace.T {
	t.Helper()
	v, err := chaos.Execute(r)
	if err == nil {
		err = v.Err
	}
	if err != nil {
		t.Fatalf("%s n=%d crash=%v %s seed=%d: %v", r.Target.ID(), r.N, r.Plan.Crash, r.Sched, r.Seed, err)
	}
	return v.Trace
}

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
	for _, family := range afd.Families(n) {
		for _, plan := range faultPatterns(n) {
			rr := detectorRun(family, n, plan, 400, 40)
			for _, r := range []chaos.Run{rr, random(rr, 1), random(rr, 2)} {
				execute(t, r)
			}
		}
	}
}

// TestClosureProperties is E14: samplings and constrained reorderings of
// admissible traces remain admissible for every detector.
func TestClosureProperties(t *testing.T) {
	const n = 3
	w := afd.DefaultWindow()
	for family, d := range afd.Standard(n) {
		tr := execute(t, detectorRun(family, n, []ioa.Loc{2}, 120, 30))
		if err := afd.CheckClosureUnderSampling(d, tr, n, w, 20, 7); err != nil {
			t.Errorf("%s: %v", family, err)
		}
		if err := afd.CheckClosureUnderReordering(d, tr, n, w, 20, 7); err != nil {
			t.Errorf("%s: %v", family, err)
		}
	}
}

// TestEvPerfectCheckAllocsFlat pins that the ◇P checker's allocations do
// not grow with trace length: every clause decodes each output into a
// bitmask set, so the only allocations are per-location bookkeeping.
func TestEvPerfectCheckAllocsFlat(t *testing.T) {
	const n = 4
	d, err := afd.Lookup(afd.FamilyEvP, n)
	if err != nil {
		t.Fatal(err)
	}
	w := afd.DefaultWindow()
	allocs := func(steps int) float64 {
		tr := execute(t, detectorRun(afd.FamilyEvP, n, []ioa.Loc{1}, steps, 40))
		if len(tr) < steps*9/10 {
			t.Fatalf("canonical run traced %d events, want about %d", len(tr), steps)
		}
		return testing.AllocsPerRun(5, func() { _ = d.Check(tr, n, w) })
	}
	if short, long := allocs(1_000), allocs(10_000); long != short {
		t.Fatalf("EvPerfect.Check allocates %.0f times on 1k events but %.0f on 10k, want equal", short, long)
	}
}

// TestQuickCanonicalTracesAdmissible (testing/quick): for random fault
// patterns, crash timings, and schedule seeds, every detector's canonical
// trace is admissible and stays admissible under a random sampling and a
// random constrained reordering.
func TestQuickCanonicalTracesAdmissible(t *testing.T) {
	const n = 4
	w := afd.DefaultWindow()
	dets := afd.Standard(n)
	famList := afd.Families(n)
	prop := func(famIdx uint8, crashBits uint8, seed int64, gate uint8) bool {
		fam := famList[int(famIdx)%len(famList)]
		d := dets[fam]
		var plan []ioa.Loc
		for i := 0; i < n-1; i++ { // keep at least location n-1 live
			if crashBits&(1<<i) != 0 {
				plan = append(plan, ioa.Loc(i))
			}
		}
		if seed < 0 {
			seed = -seed
		}
		// Steps must leave a generous suffix after the last admissible
		// crash (threshold up to 3·99 steps with the gap below) for the
		// liveness clauses to stabilize in.  300 was enough only while the
		// CrashesAfter release-ratchet bug (fixed in PR 2) silently kept
		// most later crashes from ever firing.
		v, err := chaos.Execute(random(detectorRun(fam, n, plan, 700, 20+int(gate)%80), seed%1000))
		if err == nil {
			err = v.Err
		}
		if err != nil {
			t.Logf("%s plan=%v seed=%d: %v", fam, plan, seed%1000, err)
			return false
		}
		tr := v.Trace
		rng := rand.New(rand.NewSource(seed))
		s := trace.GenSampling(tr, n, afd.IsOutput(fam), rng)
		if err := d.Check(s, n, w); err != nil {
			t.Logf("%s sampling: %v", fam, err)
			return false
		}
		// Reorderings are judged in prefix mode: they may defer the
		// stabilized suffix beyond the observed window.
		r := trace.GenConstrainedReordering(tr, rng)
		if err := d.Check(r, n, afd.PrefixWindow()); err != nil {
			t.Logf("%s reordering: %v", fam, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickValidityRejectsCorruption (testing/quick): inserting an output
// event after its location's crash always violates validity.
func TestQuickValidityRejectsCorruption(t *testing.T) {
	const n = 3
	prop := func(seed int64, loc uint8) bool {
		if seed < 0 {
			seed = -seed
		}
		l := ioa.Loc(loc % n)
		v, err := chaos.Execute(random(detectorRun(afd.FamilyP, n, []ioa.Loc{l}, 150, 30), seed%500))
		if err != nil {
			return false
		}
		// Only corrupt traces where the crash actually fired.
		if trace.FirstCrashIndex(v.Trace, l) < 0 {
			return true
		}
		corrupted := append(append(trace.T{}, v.Trace...), ioa.FDOutput(afd.FamilyP, l, "{}"))
		return afd.CheckValidity(corrupted, n, afd.FamilyP, afd.DefaultWindow()) != nil
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestRunCanonicalErrorPath: the chaos path refuses a detector family the
// zoo does not have, and a Run whose Steps is 0 runs DefaultSteps(N)
// events.
func TestRunCanonicalErrorPath(t *testing.T) {
	if _, err := chaos.Execute(detectorRun("FD-nope", 2, nil, 0, 0)); err == nil {
		t.Fatal("an unknown detector family built")
	}
	v, err := chaos.Execute(detectorRun(afd.FamilyOmega, 2, nil, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if v.Steps != chaos.DefaultSteps(2) {
		t.Fatalf("Steps 0 ran %d events, want DefaultSteps(2) = %d", v.Steps, chaos.DefaultSteps(2))
	}
}
