package problems_test

import (
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
	. "repro/internal/problems"
	"repro/internal/trace"
)

// runNBAC runs the P-based NBAC algorithm with the given votes.
func runNBAC(t *testing.T, n int, votes []string, crash []ioa.Loc, seed int64, gate int) trace.T {
	t.Helper()
	id := "nbac@"
	for _, v := range votes {
		if v == VoteYes {
			id += "1"
		} else {
			id += "0"
		}
	}
	return drive(build(t, id, n, crash), seed, 100_000, gate)
}

func nbacProject(t trace.T) trace.T {
	return trace.Project(t, func(a ioa.Action) bool {
		switch {
		case a.Kind == ioa.KindCrash:
			return true
		case a.Kind == ioa.KindEnvIn && a.Name == ActNameVote:
			return true
		case a.Kind == ioa.KindEnvOut && a.Name == ActNameOutcome:
			return true
		}
		return false
	})
}

func outcomes(t trace.T) []string {
	var out []string
	for _, a := range t {
		if a.Kind == ioa.KindEnvOut && a.Name == ActNameOutcome {
			out = append(out, a.Payload)
		}
	}
	return out
}

// TestNBACCommitsOnAllYes: all-yes, crash-free runs commit at every location.
func TestNBACCommitsOnAllYes(t *testing.T) {
	for _, seed := range []int64{-1, 1, 2} {
		tr := runNBAC(t, 3, []string{VoteYes, VoteYes, VoteYes}, nil, seed, 0)
		got := outcomes(tr)
		if len(got) != 3 {
			t.Fatalf("seed %d: %d outcomes, want 3", seed, len(got))
		}
		for _, o := range got {
			if o != OutcomeCommit {
				t.Fatalf("seed %d: outcome %s, want commit", seed, o)
			}
		}
		if err := (NBAC{N: 3}).Check(nbacProject(tr), true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestNBACAbortsOnNoVote: a single no vote forces abort everywhere.
func TestNBACAbortsOnNoVote(t *testing.T) {
	tr := runNBAC(t, 3, []string{VoteYes, VoteNo, VoteYes}, nil, -1, 0)
	got := outcomes(tr)
	if len(got) != 3 {
		t.Fatalf("%d outcomes, want 3", len(got))
	}
	for _, o := range got {
		if o != OutcomeAbort {
			t.Fatalf("outcome %s, want abort", o)
		}
	}
	if err := (NBAC{N: 3}).Check(nbacProject(tr), true); err != nil {
		t.Fatal(err)
	}
}

// TestNBACAbortsOnCrash: a crash before/while voting forces abort, and the
// live locations still terminate (non-blocking).
func TestNBACAbortsOnCrash(t *testing.T) {
	for _, seed := range []int64{-1, 3} {
		tr := runNBAC(t, 3, []string{VoteYes, VoteYes, VoteYes}, []ioa.Loc{2}, seed, 5)
		got := outcomes(tr)
		if len(got) < 2 {
			t.Fatalf("seed %d: %d outcomes, want ≥ 2 (live locations must decide)", seed, len(got))
		}
		if err := (NBAC{N: 3}).Check(nbacProject(tr), true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestNBACManySeeds fuzzes vote patterns, crash timing, and schedules.
func TestNBACManySeeds(t *testing.T) {
	votePatterns := [][]string{
		{VoteYes, VoteYes, VoteYes},
		{VoteNo, VoteYes, VoteYes},
		{VoteYes, VoteNo, VoteNo},
	}
	for seed := int64(0); seed < 12; seed++ {
		votes := votePatterns[seed%3]
		var crash []ioa.Loc
		if seed%2 == 0 {
			crash = []ioa.Loc{ioa.Loc(seed % 3)}
		}
		tr := runNBAC(t, 3, votes, crash, seed, int(seed%5)*10)
		if err := (NBAC{N: 3}).Check(nbacProject(tr), true); err != nil {
			t.Fatalf("seed %d votes=%v crash=%v: %v", seed, votes, crash, err)
		}
	}
}

func TestNBACProcsRejectsLeaderDetector(t *testing.T) {
	if _, err := NBACProcs(3, afd.FamilyOmega); err == nil {
		t.Fatal("NBAC needs suspicion sets; Ω must be refused")
	}
}
