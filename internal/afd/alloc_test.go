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
