package afd

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// Edge-case and error-path coverage for the detector checkers.

func TestSigmaRejectsMalformedPayload(t *testing.T) {
	tr := trace.T{ioa.FDOutput(FamilySigma, 0, "junk")}
	if err := (Sigma{}).Check(tr, 1, DefaultWindow()); err == nil {
		t.Fatal("malformed Σ payload accepted")
	}
}

func TestSigmaAllCrashedVacuous(t *testing.T) {
	tr := trace.T{ioa.FDOutput(FamilySigma, 0, "{0}"), ioa.Crash(0)}
	if err := (Sigma{}).Check(tr, 1, DefaultWindow()); err != nil {
		t.Fatalf("all-crashed Σ trace should be vacuous: %v", err)
	}
}

func TestAntiOmegaAllCrashedVacuous(t *testing.T) {
	tr := trace.T{ioa.FDOutput(FamilyAntiOmega, 0, "1"), ioa.Crash(0), ioa.Crash(1)}
	if err := (AntiOmega{}).Check(tr, 2, DefaultWindow()); err != nil {
		t.Fatalf("all-crashed anti-Ω trace should be vacuous: %v", err)
	}
}

func TestOmegaKRejectsNoOutputs(t *testing.T) {
	tr := trace.T{ioa.Crash(0), ioa.FDOutput(FamilyOmegaK, 1, "{1}")}
	// Delete the single output: validity already fails, so craft a
	// zero-output live trace directly against the stabilization logic via
	// prefix of crash-only events plus one output at the other location.
	bad := trace.T{ioa.Crash(0)}
	if err := (OmegaK{K: 1}).Check(bad, 2, DefaultWindow()); err == nil {
		t.Fatal("live location without outputs accepted")
	}
	if err := (OmegaK{K: 1}).Check(tr, 2, DefaultWindow()); err != nil {
		t.Fatalf("valid Ωk trace rejected: %v", err)
	}
}

func TestOmegaKMalformedPayload(t *testing.T) {
	tr := trace.T{ioa.FDOutput(FamilyOmegaK, 0, "oops")}
	if err := (OmegaK{K: 1}).Check(tr, 1, DefaultWindow()); err == nil {
		t.Fatal("malformed Ωk payload accepted")
	}
}

func TestPsiKMalformedQuorum(t *testing.T) {
	tr := trace.T{ioa.FDOutput(FamilyPsiK, 0, "bad;{0}")}
	if err := (PsiK{K: 1}).Check(tr, 1, DefaultWindow()); err == nil {
		t.Fatal("malformed Ψk quorum accepted")
	}
}

func TestPsiKRejectsWrongKSetSize(t *testing.T) {
	tr := trace.T{
		ioa.FDOutput(FamilyPsiK, 0, "{0,1};{0,1}"),
		ioa.FDOutput(FamilyPsiK, 1, "{0,1};{0,1}"),
	}
	if err := (PsiK{K: 1}).Check(tr, 2, DefaultWindow()); err == nil {
		t.Fatal("k-set of wrong size accepted")
	}
}

func TestPrefixWindowAcceptsUnstabilized(t *testing.T) {
	// An Ω prefix with a flapping leader is prefix-admissible (the leader
	// may stabilize later) but not window-admissible.
	tr := trace.T{
		ioa.FDOutput(FamilyOmega, 0, "0"),
		ioa.FDOutput(FamilyOmega, 1, "1"),
		ioa.FDOutput(FamilyOmega, 0, "1"),
		ioa.FDOutput(FamilyOmega, 1, "0"),
	}
	if err := (Omega{}).Check(tr, 2, DefaultWindow()); err == nil {
		t.Fatal("flapping Ω accepted as complete")
	}
	if err := (Omega{}).Check(tr, 2, PrefixWindow()); err != nil {
		t.Fatalf("flapping Ω prefix rejected in prefix mode: %v", err)
	}
}

func TestPrefixWindowStillRejectsSafetyViolations(t *testing.T) {
	// Prefix mode is not a free pass: outputs after a crash (validity) and
	// early suspicion (P's strong accuracy) remain rejected.
	afterCrash := trace.T{ioa.Crash(0), ioa.FDOutput(FamilyP, 0, "{}")}
	if err := ct(FamilyP).Check(afterCrash, 1, PrefixWindow()); err == nil {
		t.Fatal("output after crash accepted in prefix mode")
	}
	early := trace.T{ioa.FDOutput(FamilyP, 0, "{1}")}
	if err := ct(FamilyP).Check(early, 2, PrefixWindow()); err == nil {
		t.Fatal("pre-crash suspicion accepted in prefix mode")
	}
	disjoint := trace.T{
		ioa.FDOutput(FamilySigma, 0, "{0}"),
		ioa.FDOutput(FamilySigma, 1, "{1}"),
	}
	if err := (Sigma{}).Check(disjoint, 2, PrefixWindow()); err == nil {
		t.Fatal("disjoint quorums accepted in prefix mode")
	}
	weakAcc := trace.T{
		ioa.FDOutput(FamilyS, 0, "{1}"),
		ioa.FDOutput(FamilyS, 1, "{0}"),
	}
	if err := ct(FamilyS).Check(weakAcc, 2, PrefixWindow()); err == nil {
		t.Fatal("weak-accuracy violation accepted in prefix mode (every live suspected)")
	}
}
