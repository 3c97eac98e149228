// Package problems implements the crash problems of Section 7 of
// "Asynchronous Failure Detectors" beyond consensus — leader election,
// k-set agreement, non-blocking atomic commit — as checkable specifications,
// the bounded-problem formalism of Section 7.3 (crash independence and
// bounded length), and the query-based participant failure detector of
// Section 10.1 together with the two reductions that make consensus and the
// participant detector interchangeable.
package problems

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/trace"
)

// LeaderElection is the one-shot leader-election problem over n locations:
// each live location outputs elect(l)i at most once; all elected values
// agree; the elected location is live in t; every live location eventually
// elects.  It is a bounded problem (at most n outputs).
type LeaderElection struct{ N int }

// ActNameElect is the output action family of leader election.
const ActNameElect = "elect"

// Check verifies a finite trace over {elect} ∪ Iˆ; complete enforces the
// everyone-elects half of termination.
func (p LeaderElection) Check(t trace.T, complete bool) error {
	elected := make(map[ioa.Loc]int)
	var crashed ioa.LocSet
	var winner string
	have := false
	for _, a := range t {
		switch {
		case a.Kind == ioa.KindCrash:
			crashed.Add(a.Loc)
		case a.Kind == ioa.KindEnvOut && a.Name == ActNameElect:
			if crashed.Has(a.Loc) {
				return fmt.Errorf("problems: elect at %v after crash", a.Loc)
			}
			elected[a.Loc]++
			if elected[a.Loc] > 1 {
				return fmt.Errorf("problems: location %v elected twice", a.Loc)
			}
			if have && a.Payload != winner {
				return fmt.Errorf("problems: elected %s and %s disagree", winner, a.Payload)
			}
			winner = a.Payload
			have = true
		}
	}
	if have {
		l, err := ioa.DecodeLoc(winner)
		if err != nil {
			return fmt.Errorf("problems: malformed winner %q: %v", winner, err)
		}
		if crashed.Has(l) && complete {
			// The winner must be live in the completed trace; electing a
			// location that later crashes mid-run is admissible only for
			// incomplete prefixes.
			return fmt.Errorf("problems: elected location %v is faulty", l)
		}
	}
	if complete {
		for i := 0; i < p.N; i++ {
			l := ioa.Loc(i)
			if !crashed.Has(l) && elected[l] != 1 {
				return fmt.Errorf("problems: live location %v elected %d times, want 1", l, elected[l])
			}
		}
	}
	return nil
}

// KSetAgreement is k-set agreement over n locations with proposal/decision
// actions shared with consensus: at most k distinct decision values, each
// decision a proposal, one decision per live location.
type KSetAgreement struct {
	N, K int
}

// Check verifies a finite trace over IP ∪ OP (propose/decide/crash).
func (p KSetAgreement) Check(t trace.T, complete bool) error {
	var crashed ioa.LocSet
	proposed := make(map[string]bool)
	decided := make(map[ioa.Loc]int)
	values := make(map[string]bool)
	for _, a := range t {
		switch {
		case a.Kind == ioa.KindCrash:
			crashed.Add(a.Loc)
		case a.Kind == ioa.KindEnvIn && a.Name == system.ActNamePropose:
			proposed[a.Payload] = true
		case a.Kind == ioa.KindEnvOut && a.Name == system.ActNameDecide:
			if crashed.Has(a.Loc) {
				return fmt.Errorf("problems: decide at %v after crash", a.Loc)
			}
			decided[a.Loc]++
			if decided[a.Loc] > 1 {
				return fmt.Errorf("problems: location %v decided twice", a.Loc)
			}
			if !proposed[a.Payload] {
				return fmt.Errorf("problems: decision %q never proposed", a.Payload)
			}
			values[a.Payload] = true
		}
	}
	if len(values) > p.K {
		return fmt.Errorf("problems: %d distinct decisions exceed k = %d", len(values), p.K)
	}
	if complete {
		for i := 0; i < p.N; i++ {
			l := ioa.Loc(i)
			if !crashed.Has(l) && decided[l] != 1 {
				return fmt.Errorf("problems: live location %v decided %d times", l, decided[l])
			}
		}
	}
	return nil
}

// NBAC is non-blocking atomic commit: each location votes yes/no once;
// decisions are commit/abort; all decisions agree; commit requires all-yes
// votes; abort requires a no vote or a crash; live locations decide.
type NBAC struct{ N int }

// NBAC action names.
const (
	ActNameVote    = "vote"
	ActNameOutcome = "outcome"
	VoteYes        = "yes"
	VoteNo         = "no"
	OutcomeCommit  = "commit"
	OutcomeAbort   = "abort"
)

// Check verifies a finite NBAC trace.
func (p NBAC) Check(t trace.T, complete bool) error {
	var crashed ioa.LocSet
	votes := make(map[ioa.Loc]string)
	outcomes := make(map[ioa.Loc]int)
	anyNo := false
	var outcome string
	have := false
	for _, a := range t {
		switch {
		case a.Kind == ioa.KindCrash:
			crashed.Add(a.Loc)
		case a.Kind == ioa.KindEnvIn && a.Name == ActNameVote:
			if _, dup := votes[a.Loc]; dup {
				return fmt.Errorf("problems: location %v voted twice", a.Loc)
			}
			votes[a.Loc] = a.Payload
			if a.Payload == VoteNo {
				anyNo = true
			}
		case a.Kind == ioa.KindEnvOut && a.Name == ActNameOutcome:
			if crashed.Has(a.Loc) {
				return fmt.Errorf("problems: outcome at %v after crash", a.Loc)
			}
			outcomes[a.Loc]++
			if outcomes[a.Loc] > 1 {
				return fmt.Errorf("problems: location %v has two outcomes", a.Loc)
			}
			if have && a.Payload != outcome {
				return fmt.Errorf("problems: outcomes %s and %s disagree", outcome, a.Payload)
			}
			outcome = a.Payload
			have = true
		}
	}
	if have {
		switch outcome {
		case OutcomeCommit:
			for i := 0; i < p.N; i++ {
				if votes[ioa.Loc(i)] != VoteYes {
					return fmt.Errorf("problems: commit without unanimous yes (location %d)", i)
				}
			}
		case OutcomeAbort:
			if !anyNo && crashed.IsEmpty() && complete {
				return fmt.Errorf("problems: abort with all-yes votes and no crash")
			}
		default:
			return fmt.Errorf("problems: unknown outcome %q", outcome)
		}
	}
	if complete {
		for i := 0; i < p.N; i++ {
			l := ioa.Loc(i)
			if !crashed.Has(l) && outcomes[l] != 1 {
				return fmt.Errorf("problems: live location %v has %d outcomes", l, outcomes[l])
			}
		}
	}
	return nil
}
