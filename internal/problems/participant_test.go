package problems_test

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/ioa"
	. "repro/internal/problems"
	"repro/internal/trace"
)

// runCVP runs consensus via the participant oracle with proposals 1,0,1
// (seed < 0: round-robin) and returns the full trace.
func runCVP(t *testing.T, n int, seed int64) trace.T {
	t.Helper()
	return drive(build(t, "participant:consensus@101", n, nil), seed, 10_000, 0)
}

// runPVC runs the participant detector via Ω consensus, two queries per
// location, round-robin, and returns the full trace.
func runPVC(t *testing.T, n int) trace.T {
	t.Helper()
	return drive(build(t, "participant:via-consensus", n, nil), -1, 20_000, 0)
}

// TestConsensusViaParticipant is the first Section-10.1 reduction: the
// participant oracle suffices to solve (multi-valued) consensus, including
// with crashes of non-answered locations.
func TestConsensusViaParticipant(t *testing.T) {
	const n = 3
	for _, seed := range []int64{-1, 1, 2, 3} {
		full := runCVP(t, n, seed)
		if err := CheckParticipant(full); err != nil {
			t.Fatalf("seed %d: oracle misbehaved: %v", seed, err)
		}
		decs := consensus.Decisions(full)
		if len(decs) != n {
			t.Fatalf("seed %d: %d decisions, want %d", seed, len(decs), n)
		}
		for _, d := range decs {
			if d.Payload != decs[0].Payload {
				t.Fatalf("seed %d: agreement violated: %v", seed, decs)
			}
		}
		// Validity: the decision is one of the proposals.
		if decs[0].Payload != "0" && decs[0].Payload != "1" {
			t.Fatalf("seed %d: decision %q not a proposal", seed, decs[0].Payload)
		}
	}
}

// TestParticipantViaConsensus is the converse reduction: a consensus
// solution (the CT algorithm with Ω) answers participant queries.
func TestParticipantViaConsensus(t *testing.T) {
	const n = 3
	full := runPVC(t, n)

	answers := trace.Project(full, func(a ioa.Action) bool {
		return a.Kind == ioa.KindFD && a.Name == FamilyParticipant
	})
	if len(answers) != 2*n {
		t.Fatalf("%d answers, want %d (2 per location)", len(answers), 2*n)
	}
	if err := CheckParticipant(full); err != nil {
		t.Fatalf("participant property violated: %v", err)
	}
	// No consensus decide outputs leak: the hosted decision is hidden.
	if leaks := consensus.Decisions(full); len(leaks) != 0 {
		t.Fatalf("hosted consensus decisions leaked: %v", leaks)
	}
}

func TestQuerierEnv(t *testing.T) {
	q := NewQuerierEnv(1, 2)
	a, ok := q.Enabled(0)
	if !ok || a != Query(1) {
		t.Fatalf("Enabled = %v", a)
	}
	q.Fire(a)
	q.Fire(a)
	if _, ok := q.Enabled(0); ok {
		t.Fatal("query budget exceeded")
	}
	q2 := NewQuerierEnv(0, 5)
	q2.Input(ioa.Crash(0))
	if _, ok := q2.Enabled(0); ok {
		t.Fatal("crashed querier still querying")
	}
	if !q2.Accepts(ioa.FDOutput(FamilyParticipant, 0, "1")) {
		t.Fatal("querier must absorb answers at its location")
	}
	if q2.Accepts(ioa.FDOutput(FamilyParticipant, 1, "1")) {
		t.Fatal("querier must ignore other locations' answers")
	}
}
