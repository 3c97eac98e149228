package afd

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// TestWindowSemantics documents the finite-prefix reading: a run long past
// stabilization passes a demanding window; a run cut off mid-stabilization
// fails it while passing the minimal window.
func TestWindowSemantics(t *testing.T) {
	const n = 3
	d := ct(FamilyEvP)
	d.Perverse = 4
	long := runAutomaton(d.Automaton(n), []ioa.Loc{2}, 400, 60)
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
