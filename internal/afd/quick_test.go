package afd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// TestQuickCanonicalTracesAdmissible (testing/quick): for random fault
// patterns, crash timings, and schedule seeds, every detector's canonical
// trace is admissible and stays admissible under a random sampling and a
// random constrained reordering.
func TestQuickCanonicalTracesAdmissible(t *testing.T) {
	const n = 4
	w := DefaultWindow()
	dets := Standard(n)
	famList := Families(n)
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
		tr, err := RunCanonical(d, RunSpec{
			N: n, Crash: plan, Steps: 700, Seed: seed % 1000,
			CrashGate: 20 + int(gate)%80,
		})
		if err != nil {
			return false
		}
		if err := d.Check(tr, n, w); err != nil {
			t.Logf("%s plan=%v seed=%d: %v", fam, plan, seed%1000, err)
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		s := trace.GenSampling(tr, n, IsOutput(fam), rng)
		if err := d.Check(s, n, w); err != nil {
			t.Logf("%s sampling: %v", fam, err)
			return false
		}
		// Reorderings are judged in prefix mode: they may defer the
		// stabilized suffix beyond the observed window.
		r := trace.GenConstrainedReordering(tr, rng)
		if err := d.Check(r, n, PrefixWindow()); err != nil {
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
		tr, err := RunCanonical(ct(FamilyP), RunSpec{
			N: n, Crash: []ioa.Loc{l}, Steps: 150, Seed: seed % 500, CrashGate: 30,
		})
		if err != nil {
			return false
		}
		// Only corrupt traces where the crash actually fired.
		if trace.FirstCrashIndex(tr, l) < 0 {
			return true
		}
		corrupted := append(append(trace.T{}, tr...), ioa.FDOutput(FamilyP, l, "{}"))
		return CheckValidity(corrupted, n, FamilyP, DefaultWindow()) != nil
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestWindowSemantics documents the finite-prefix reading: a run long past
// stabilization passes a demanding window; a run cut off mid-stabilization
// fails it while passing the minimal window.
func TestWindowSemantics(t *testing.T) {
	const n = 3
	d := ct(FamilyEvP)
	d.Perverse = 4
	long, err := RunCanonical(d, RunSpec{N: n, Crash: []ioa.Loc{2}, Steps: 400, Seed: -1, CrashGate: 60})
	if err != nil {
		t.Fatal(err)
	}
	demanding := Window{MinOutputsPerLive: 5, MinStableOutputs: 5}
	if err := d.Check(long, n, demanding); err != nil {
		t.Fatalf("long run must satisfy a demanding window: %v", err)
	}
	// A prefix cut just after the crash has only 2–3 post-crash outputs per
	// live location: enough to witness eventual completeness minimally,
	// too few for the demanding window.
	ci := trace.FirstCrashIndex(long, 2)
	if ci < 0 {
		t.Fatal("crash missing from the long run")
	}
	short := long[:ci+6]
	if err := d.Check(short, n, DefaultWindow()); err != nil {
		t.Fatalf("prefix must satisfy the minimal window: %v", err)
	}
	if err := d.Check(short, n, demanding); err == nil {
		t.Fatal("short prefix satisfied the demanding window; window has no effect")
	}
}

// TestCheckCrashExclusive covers the crash-exclusivity precondition.
func TestCheckCrashExclusive(t *testing.T) {
	ok := trace.T{ioa.Crash(0), ioa.FDOutput(FamilyP, 1, "{0}")}
	if err := CheckCrashExclusive(ok, FamilyP); err != nil {
		t.Fatalf("pure FD trace rejected: %v", err)
	}
	for _, bad := range []trace.T{
		{ioa.Send(0, 1, "m")},
		{ioa.FDOutput(FamilyOmega, 0, "0")}, // wrong family
		{ioa.EnvInput("propose", 0, "1")},
	} {
		if err := CheckCrashExclusive(bad, FamilyP); err == nil {
			t.Errorf("foreign event accepted: %v", bad)
		}
	}
}
