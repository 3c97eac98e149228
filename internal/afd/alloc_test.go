package afd

import (
	"testing"

	"repro/internal/ioa"
)

// TestSuspectsAllocs pins the checkers' payload reading: a well-formed
// suspicion set decodes into a bitmask, not a map.
func TestSuspectsAllocs(t *testing.T) {
	out := ioa.FDOutput(FamilyEvP, 0, "{1,3}")
	hits := 0
	if avg := testing.AllocsPerRun(100, func() {
		for l := ioa.Loc(0); l < 4; l++ {
			if suspects(out, 4).Has(l) {
				hits++
			}
		}
	}); avg != 0 {
		t.Fatalf("suspects allocates %.1f times per 4 queries, want 0", avg)
	}
	if hits == 0 {
		t.Fatal("suspects never answered true")
	}
}

// TestEvPerfectCheckAllocsFlat pins that the ◇P checker's allocations do
// not grow with trace length: every clause decodes each output into a
// bitmask set, so the only allocations are per-location bookkeeping.
func TestEvPerfectCheckAllocsFlat(t *testing.T) {
	const n = 4
	d := ct(FamilyEvP)
	w := DefaultWindow()
	allocs := func(steps int) float64 {
		tr, err := RunCanonical(d, RunSpec{N: n, Crash: []ioa.Loc{1}, Seed: -1, Steps: steps, CrashGate: 40})
		if err != nil {
			t.Fatal(err)
		}
		if len(tr) < steps*9/10 {
			t.Fatalf("canonical run traced %d events, want about %d", len(tr), steps)
		}
		if err := d.Check(tr, n, w); err != nil {
			t.Fatalf("canonical trace rejected: %v", err)
		}
		return testing.AllocsPerRun(5, func() { _ = d.Check(tr, n, w) })
	}
	if short, long := allocs(1_000), allocs(10_000); long != short {
		t.Fatalf("EvPerfect.Check allocates %.0f times on 1k events but %.0f on 10k, want equal", short, long)
	}
}
