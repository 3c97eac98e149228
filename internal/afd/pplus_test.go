package afd

import (
	"math/rand"
	"testing"

	"repro/internal/ioa"
	"repro/internal/trace"
)

func TestPPlusGeneratorSatisfiesSpec(t *testing.T) {
	const n = 3
	tr := runAutomaton(PPlus{}.Automaton(n), []ioa.Loc{1}, 120, 30)
	if err := CheckPPlus(tr, n, DefaultWindow()); err != nil {
		t.Fatalf("canonical P+ trace rejected: %v", err)
	}
}

func TestPPlusRejectsLaggingOutput(t *testing.T) {
	tr := trace.T{
		ioa.Crash(1),
		ioa.FDOutput(FamilyPPlus, 0, "{}"), // lags behind the crash
	}
	if err := CheckPPlus(tr, 2, DefaultWindow()); err == nil {
		t.Fatal("lagging output accepted; P+ must be instantaneous")
	}
}

// TestPPlusClosedUnderSampling: samplings drop faulty-location suffixes and
// crash duplicates only, which preserves instantaneity.
func TestPPlusClosedUnderSampling(t *testing.T) {
	const n = 3
	tr := runAutomaton(PPlus{}.Automaton(n), []ioa.Loc{1}, 120, 30)
	rng := rand.New(rand.NewSource(5))
	isOut := IsOutput(FamilyPPlus)
	for i := 0; i < 20; i++ {
		s := trace.GenSampling(tr, n, isOut, rng)
		if err := trace.IsSampling(s, tr, n, isOut); err != nil {
			t.Fatal(err)
		}
		if err := CheckPPlus(s, n, DefaultWindow()); err != nil {
			t.Fatalf("sampling of P+ trace rejected (round %d): %v", i, err)
		}
	}
}

// TestPPlusNotClosedUnderReordering is the paper's footnote-1 point made
// executable: P+ is not an AFD because a constrained reordering of an
// admissible trace can violate instantaneity.  The reordering moves crash_1
// before an earlier {}-output at location 0 — permitted, because the
// constraints only preserve (a) per-location order and (b) the order of
// events *after* a crash they followed — and the moved output then lies
// about the instantaneous crash set.
func TestPPlusNotClosedUnderReordering(t *testing.T) {
	const n = 2
	admissible := trace.T{
		ioa.FDOutput(FamilyPPlus, 0, "{}"),
		ioa.Crash(1),
		ioa.FDOutput(FamilyPPlus, 0, "{1}"),
	}
	if err := CheckPPlus(admissible, n, DefaultWindow()); err != nil {
		t.Fatalf("base trace must be admissible: %v", err)
	}
	reordered := trace.T{
		ioa.Crash(1),
		ioa.FDOutput(FamilyPPlus, 0, "{}"), // now instantaneously wrong
		ioa.FDOutput(FamilyPPlus, 0, "{1}"),
	}
	if err := trace.IsConstrainedReordering(reordered, admissible); err != nil {
		t.Fatalf("the exhibit must be a constrained reordering: %v", err)
	}
	if err := CheckPPlus(reordered, n, DefaultWindow()); err == nil {
		t.Fatal("reordered trace accepted — P+ would be an AFD, contradicting [6]")
	}
}

// TestPVersusPPlusCollapse: the *same* reordered trace, read as a P trace,
// is admissible — under the AFD properties P+ collapses into P, which is
// exactly why the paper restricts attention to AFDs.
func TestPVersusPPlusCollapse(t *testing.T) {
	reordered := trace.T{
		ioa.Crash(1),
		ioa.FDOutput(FamilyP, 0, "{}"),
		ioa.FDOutput(FamilyP, 0, "{1}"),
		ioa.FDOutput(FamilyP, 0, "{1}"),
	}
	if err := ct(FamilyP).Check(reordered, 2, DefaultWindow()); err != nil {
		t.Fatalf("P must accept the delayed reading: %v", err)
	}
}
