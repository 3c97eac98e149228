// Package trace implements the sequence calculus of Section 3.2 of
// "Asynchronous Failure Detectors": projections, samplings, constrained
// reorderings, and the live/faulty bookkeeping used by every specification
// checker in this repository.
//
// A trace is a finite []ioa.Action.  The paper works with finite and infinite
// sequences; simulation produces finite prefixes of fair executions, and the
// helpers here make the finite-prefix reading of "eventually"/"permanently"
// explicit (see StableSuffix).
package trace

import (
	"fmt"

	"repro/internal/ioa"
)

// T is a finite sequence of events.
type T = []ioa.Action

// Project returns the subsequence of t consisting of events satisfying keep
// (the paper's projection t|B for B = {a : keep(a)}).  It calls keep exactly
// once per event, in trace order, so keep may be stateful:
// selfimpl.VerifyProof's Lemma-6 projection counts each location's events
// inside its predicate.  Sizing the result by a first counting pass would
// call keep twice per event and break such predicates.
func Project(t T, keep func(ioa.Action) bool) T {
	var out T
	for _, a := range t {
		if keep(a) {
			out = append(out, a)
		}
	}
	return out
}

// AtLoc returns the subsequence of events occurring at location i.  It is a
// Project, so it reads each event once, in trace order.
func AtLoc(t T, i ioa.Loc) T {
	return Project(t, func(a ioa.Action) bool { return a.Loc == i })
}

// Kinds returns the subsequence of events whose kind is one of ks.  It is a
// Project, so it reads each event once, in trace order.
func Kinds(t T, ks ...ioa.Kind) T {
	return Project(t, func(a ioa.Action) bool {
		for _, k := range ks {
			if a.Kind == k {
				return true
			}
		}
		return false
	})
}

// FD returns t projected onto Iˆ ∪ OD for the failure-detector family with
// the given action name: all crash events plus all KindFD events named name.
// It is a Project, so it reads each event once, in trace order.
func FD(t T, name string) T {
	return Project(t, func(a ioa.Action) bool {
		return a.Kind == ioa.KindCrash || (a.Kind == ioa.KindFD && a.Name == name)
	})
}

// Faulty returns faulty(t): the set of locations at which a crash event
// occurs in t.
func Faulty(t T) ioa.LocSet {
	var f ioa.LocSet
	for _, a := range t {
		if a.Kind == ioa.KindCrash {
			f.Add(a.Loc)
		}
	}
	return f
}

// Live returns live(t) for a system with locations 0..n-1: the locations at
// which no crash event occurs in t.
func Live(t T, n int) ioa.LocSet {
	f := Faulty(t)
	var live ioa.LocSet
	for i := ioa.Loc(0); int(i) < n; i++ {
		if !f.Has(i) {
			live.Add(i)
		}
	}
	return live
}

// FirstCrashIndex returns the index in t of the first crash event at i, or -1.
func FirstCrashIndex(t T, i ioa.Loc) int {
	for x, a := range t {
		if a.Kind == ioa.KindCrash && a.Loc == i {
			return x
		}
	}
	return -1
}

// IsSubsequence reports whether sub is a subsequence of t.
func IsSubsequence(sub, t T) bool {
	j := 0
	for _, a := range t {
		if j < len(sub) && a == sub[j] {
			j++
		}
	}
	return j == len(sub)
}

// Equal reports element-wise equality of two traces.
func Equal(a, b T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Count returns the number of events in t satisfying pred.
func Count(t T, pred func(ioa.Action) bool) int {
	n := 0
	for _, a := range t {
		if pred(a) {
			n++
		}
	}
	return n
}

// StableSuffix returns the longest suffix of t on which every event satisfies
// pred, as a start index into t (len(t) if even the empty suffix is the
// longest, i.e. the last event violates pred).  It is the finite-prefix
// reading of "there exists a suffix such that every event satisfies pred":
// on a finite prefix of a fair execution the property holds iff the stable
// suffix is non-trivial and long enough to be convincing, which callers
// decide with a minimum-length parameter.
func StableSuffix(t T, pred func(ioa.Action) bool) int {
	start := len(t)
	for i := len(t) - 1; i >= 0; i-- {
		if !pred(t[i]) {
			break
		}
		start = i
	}
	return start
}

// multiset key for sampling/reordering verification.
func key(a ioa.Action) ioa.Action { return a }

// IsSampling reports whether sample is a sampling of t per Section 3.2:
// (1) sample is a subsequence of t; (2) for every live location i,
// sample|OD,i = t|OD,i; (3) for every faulty i, sample contains the first
// crashi event of t and sample|OD,i is a prefix of t|OD,i.  Both sequences
// must range over Iˆ ∪ OD for a single detector family; isOutput classifies
// the detector's output events, and n is the number of locations.
func IsSampling(sample, t T, n int, isOutput func(ioa.Action) bool) error {
	if !IsSubsequence(sample, t) {
		return fmt.Errorf("trace: sampling is not a subsequence")
	}
	faulty := Faulty(t)
	for i := 0; i < n; i++ {
		loc := ioa.Loc(i)
		outT := Project(t, func(a ioa.Action) bool { return isOutput(a) && a.Loc == loc })
		outS := Project(sample, func(a ioa.Action) bool { return isOutput(a) && a.Loc == loc })
		if faulty.Has(loc) {
			// Must retain the first crash event at loc.
			fc := FirstCrashIndex(t, loc)
			found := false
			for _, a := range sample {
				if a == t[fc] {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("trace: sampling drops first crash_%d event", i)
			}
			// Outputs at loc must form a prefix.
			if len(outS) > len(outT) {
				return fmt.Errorf("trace: sampling has extra outputs at faulty location %d", i)
			}
			for x := range outS {
				if outS[x] != outT[x] {
					return fmt.Errorf("trace: sampling outputs at faulty location %d are not a prefix", i)
				}
			}
		} else {
			if !Equal(outS, outT) {
				return fmt.Errorf("trace: sampling changes outputs at live location %d", i)
			}
		}
	}
	return nil
}

// IsConstrainedReordering reports whether r is a constrained reordering of t
// per Section 3.2: r is a permutation of t, and for every pair of events
// e before e' in t with loc(e)=loc(e') or e ∈ Iˆ, e is before e' in r too.
//
// Events are compared as Action values; equal values are matched by
// occurrence order, which is sound because equal events are mutually
// order-constrained at a single location and unconstrained otherwise only
// when indistinguishable.
func IsConstrainedReordering(r, t T) error {
	if len(r) != len(t) {
		return fmt.Errorf("trace: reordering has different length (%d vs %d)", len(r), len(t))
	}
	// Permutation check via multiset equality.
	counts := make(map[ioa.Action]int, len(t))
	for _, a := range t {
		counts[key(a)]++
	}
	for _, a := range r {
		counts[key(a)]--
		if counts[key(a)] < 0 {
			return fmt.Errorf("trace: reordering is not a permutation (extra %v)", a)
		}
	}
	// Map each occurrence in t to its occurrence index in r (k-th equal
	// value in t ↔ k-th equal value in r).
	occR := make(map[ioa.Action][]int)
	for idx, a := range r {
		occR[key(a)] = append(occR[key(a)], idx)
	}
	seen := make(map[ioa.Action]int)
	posInR := make([]int, len(t))
	for idx, a := range t {
		k := seen[key(a)]
		seen[key(a)]++
		posInR[idx] = occR[key(a)][k]
	}
	// Order constraints.
	for x := 0; x < len(t); x++ {
		for y := x + 1; y < len(t); y++ {
			e, e2 := t[x], t[y]
			if e.Loc == e2.Loc || e.Kind == ioa.KindCrash {
				if posInR[x] > posInR[y] {
					return fmt.Errorf("trace: reordering violates order of %v before %v", e, e2)
				}
			}
		}
	}
	return nil
}

// Rand is the minimal random source the trace generators draw from.  Both
// *math/rand.Rand and *sched.PRNG satisfy it; deterministic artifacts (bench
// pins, chaos replays) should pass the latter, whose stream is stable across
// Go releases.
type Rand interface {
	Intn(n int) int
}

// GenSampling produces a random sampling of t (per Section 3.2) using rng:
// for each faulty location it truncates a random suffix of that location's
// outputs and drops a random subset of the non-first crash events.
func GenSampling(t T, n int, isOutput func(ioa.Action) bool, rng Rand) T {
	faulty := Faulty(t)
	// Choose a cut-off for outputs at each faulty location, drawing in
	// location order so the sampling is a function of rng's stream alone.
	cut := make(map[ioa.Loc]int)
	firstCrash := make(map[ioa.Loc]int)
	for _, loc := range faulty.AppendMembers(nil) {
		total := Count(t, func(a ioa.Action) bool { return isOutput(a) && a.Loc == loc })
		cut[loc] = rng.Intn(total + 1) // keep this many outputs
		firstCrash[loc] = FirstCrashIndex(t, loc)
	}
	kept := make(T, 0, len(t))
	outSeen := make(map[ioa.Loc]int)
	for idx, a := range t {
		switch {
		case a.Kind == ioa.KindCrash:
			if idx == firstCrash[a.Loc] {
				kept = append(kept, a) // must keep first crash
			} else if rng.Intn(2) == 0 {
				kept = append(kept, a) // may keep later duplicates
			}
		case isOutput(a) && faulty.Has(a.Loc):
			if outSeen[a.Loc] < cut[a.Loc] {
				kept = append(kept, a)
			}
			outSeen[a.Loc]++
		default:
			kept = append(kept, a)
		}
	}
	return kept
}

// GenConstrainedReordering produces a random constrained reordering of t:
// it repeatedly picks, uniformly among the events all of whose t-predecessors
// under the order constraints have been emitted, the next event to emit.
func GenConstrainedReordering(t T, rng Rand) T {
	n := len(t)
	// preds[y] = indices x < y with a constraint x before y.
	preds := make([][]int, n)
	for y := 0; y < n; y++ {
		for x := 0; x < y; x++ {
			if t[x].Loc == t[y].Loc || t[x].Kind == ioa.KindCrash {
				preds[y] = append(preds[y], x)
			}
		}
	}
	emitted := make([]bool, n)
	out := make(T, 0, n)
	for len(out) < n {
		var ready []int
		for y := 0; y < n; y++ {
			if emitted[y] {
				continue
			}
			ok := true
			for _, x := range preds[y] {
				if !emitted[x] {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, y)
			}
		}
		pick := ready[rng.Intn(len(ready))]
		emitted[pick] = true
		out = append(out, t[pick])
	}
	return out
}
