// Package selfimpl implements Algorithm 3 of "Asynchronous Failure
// Detectors" — the distributed algorithm Aself that uses an AFD D to solve a
// renaming D′ of D — and makes the Section-6 correctness proof executable:
// given a trace of the composed system, it constructs the event mapping rEV,
// the sampled subsequence tˆ, and verifies the sampling and constrained-
// reordering steps (Lemmas 2–12) that establish Theorem 13 (every AFD is
// self-implementable) on that trace.
package selfimpl

import (
	"fmt"
	"strings"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// Renaming is the bijection rIO of Section 5.3 restricted to what a renaming
// can change here: the output family name.  Payloads and locations are
// preserved (condition 2a: loc(a) = loc(rIO(a))), crash actions map to
// themselves (condition 2b), and distinct families guarantee condition 1
// (disjoint non-crash actions).
type Renaming struct {
	From string // family of OD
	To   string // family of OD′
}

// Apply maps an action under rIO: outputs of From become outputs of To;
// crash actions are fixed points.
func (r Renaming) Apply(a ioa.Action) ioa.Action {
	if a.Kind == ioa.KindFD && a.Name == r.From {
		a.Name = r.To
		return a
	}
	return a
}

// Invert maps an action under rIO⁻¹.
func (r Renaming) Invert(a ioa.Action) ioa.Action {
	if a.Kind == ioa.KindFD && a.Name == r.To {
		a.Name = r.From
		return a
	}
	return a
}

// ApplyTrace maps rIO over a sequence (homomorphic extension, condition 2e).
func (r Renaming) ApplyTrace(t trace.T) trace.T {
	out := make(trace.T, len(t))
	for i, a := range t {
		out[i] = r.Apply(a)
	}
	return out
}

// InvertTrace maps rIO⁻¹ over a sequence.
func (r Renaming) InvertTrace(t trace.T) trace.T {
	out := make(trace.T, len(t))
	for i, a := range t {
		out[i] = r.Invert(a)
	}
	return out
}

// Aself is the per-location automaton of Algorithm 3.  It maintains the
// queue fdq of D-outputs received at its location; the output action d′ is
// enabled when rIO⁻¹(d′) is at the head of fdq; crashi permanently disables
// the outputs.
type Aself struct {
	id     ioa.Loc
	ren    Renaming
	failed bool
	fdq    []string // payload queue; family is fixed, payloads carry identity
}

var _ ioa.Automaton = (*Aself)(nil)

// NewAself returns the Algorithm-3 automaton for location id.
func NewAself(id ioa.Loc, ren Renaming) *Aself {
	return &Aself{id: id, ren: ren}
}

// NewCollection returns the distributed algorithm Aself: one automaton per
// location 0..n-1.
func NewCollection(n int, ren Renaming) []ioa.Automaton {
	out := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		out[i] = NewAself(ioa.Loc(i), ren)
	}
	return out
}

// Name implements ioa.Automaton.
func (a *Aself) Name() string { return fmt.Sprintf("Aself[%v]", a.id) }

// Accepts implements ioa.Automaton: inputs are OD,i and crashi.
func (a *Aself) Accepts(act ioa.Action) bool {
	if act.Kind == ioa.KindCrash {
		return act.Loc == a.id
	}
	return act.Kind == ioa.KindFD && act.Name == a.ren.From && act.Loc == a.id
}

// Input implements ioa.Automaton.
func (a *Aself) Input(act ioa.Action) {
	if act.Kind == ioa.KindCrash {
		a.failed = true
		return
	}
	a.fdq = append(a.fdq, act.Payload)
}

// NumTasks implements ioa.Automaton: one task, {d′ | d′ ∈ OD′,i}.
func (a *Aself) NumTasks() int { return 1 }

// TaskLabel implements ioa.Automaton.
func (a *Aself) TaskLabel(int) string { return "emit" }

// Enabled implements ioa.Automaton: the renaming of the head of fdq.
func (a *Aself) Enabled(int) (ioa.Action, bool) {
	if a.failed || len(a.fdq) == 0 {
		return ioa.Action{}, false
	}
	return ioa.FDOutput(a.ren.To, a.id, a.fdq[0]), true
}

// Fire implements ioa.Automaton: delete the head of fdq.
func (a *Aself) Fire(ioa.Action) { a.fdq = a.fdq[1:] }

// QueueDepth reports len(fdq), the E5 overhead metric.
func (a *Aself) QueueDepth() int { return len(a.fdq) }

// Clone implements ioa.Automaton.
func (a *Aself) Clone() ioa.Automaton {
	c := &Aself{id: a.id, ren: a.ren, failed: a.failed}
	c.fdq = append([]string(nil), a.fdq...)
	return c
}

// AppendEncode implements ioa.Automaton.
func (a *Aself) AppendEncode(dst []byte) []byte {
	return fmt.Appendf(dst, "AS%v|%t|%s", a.id, a.failed, strings.Join(a.fdq, "\x1f"))
}

// ProofReport carries the artifacts of running the Section-6 proof pipeline
// on a concrete trace.
type ProofReport struct {
	// REV maps each index of an OD′ event in t to the index of the OD
	// event it renames (the event mapping rEV of Section 6.2).
	REV map[int]int
	// SampledLen is the number of OD events retained in tˆ.
	SampledLen int
	// That is tˆ|Iˆ∪OD — the sampled subsequence used in Lemma 6.
	That trace.T
}

// VerifyProof runs the proof pipeline of Section 6.2 on a finite trace t of
// the composition of D's implementation, Aself and the crash automaton,
// restricted to Iˆ ∪ OD ∪ OD′:
//
//	Lemma 2  – every OD′ event at i is preceded by a matching OD event at i
//	           (the x-th primed event renames the x-th unprimed one);
//	Lemma 6  – tˆ (retaining exactly the OD events in the image of rEV) is
//	           a sampling of t|Iˆ∪OD;
//	Lemma 9  – t|Iˆ∪OD′ is a constrained reordering of rIO(tˆ|Iˆ∪OD).
//
// n is the number of locations.  The membership conclusion (Corollary 7,
// Corollary 11, Lemma 12) is the caller's job: re-check the projections with
// D's checker, as the package tests do.
func VerifyProof(t trace.T, n int, ren Renaming) (*ProofReport, error) {
	isD := func(a ioa.Action) bool { return a.Kind == ioa.KindFD && a.Name == ren.From }
	isD2 := func(a ioa.Action) bool { return a.Kind == ioa.KindFD && a.Name == ren.To }

	// Lemma 2: per-location positional matching.
	rev := make(map[int]int, len(t))
	for i := 0; i < n; i++ {
		loc := ioa.Loc(i)
		var dIdx, d2Idx []int
		for x, a := range t {
			switch {
			case isD(a) && a.Loc == loc:
				dIdx = append(dIdx, x)
			case isD2(a) && a.Loc == loc:
				d2Idx = append(d2Idx, x)
			}
		}
		if len(d2Idx) > len(dIdx) {
			return nil, fmt.Errorf("selfimpl: location %d emits %d renamed outputs but received only %d (Lemma 2)",
				i, len(d2Idx), len(dIdx))
		}
		for x, pos2 := range d2Idx {
			pos := dIdx[x]
			if pos >= pos2 {
				return nil, fmt.Errorf("selfimpl: renamed event %v at %d precedes its source at %d (Lemma 2)",
					t[pos2], pos2, pos)
			}
			if ren.Invert(t[pos2]) != t[pos] {
				return nil, fmt.Errorf("selfimpl: event %v is not the renaming of %v (Lemma 2)",
					t[pos2], t[pos])
			}
			rev[pos2] = pos
		}
	}

	// Build tˆ: all Iˆ and OD′ events, and exactly the OD events in the
	// image of rEV.
	inImage := make(map[int]bool, len(rev))
	for _, src := range rev {
		inImage[src] = true
	}
	var that trace.T
	sampled := 0
	for x, a := range t {
		switch {
		case a.Kind == ioa.KindCrash || isD2(a):
			that = append(that, a)
		case isD(a) && inImage[x]:
			that = append(that, a)
			sampled++
		}
	}

	// Lemma 6: tˆ|Iˆ∪OD is a sampling of t|Iˆ∪OD.  Finite-prefix
	// adjustment: on an infinite fair execution, Lemma 4 guarantees every
	// OD event at a live location is eventually matched by an OD′ event;
	// on a finite prefix the per-location FIFO queue may still hold a
	// trailing suffix of unmatched events.  Those events would be matched
	// in any fair extension, so the Lemma-6 check excludes them from the
	// base trace (they form exactly a per-location suffix, by FIFO).
	matched := make(map[ioa.Loc]int, n)
	for i := 0; i < n; i++ {
		loc := ioa.Loc(i)
		for _, a := range t {
			if isD2(a) && a.Loc == loc {
				matched[loc]++
			}
		}
	}
	live := trace.Live(t, n)
	seen := make(map[ioa.Loc]int, n)
	tD := trace.Project(t, func(a ioa.Action) bool {
		if a.Kind == ioa.KindCrash {
			return true
		}
		if !isD(a) {
			return false
		}
		if live.Has(a.Loc) {
			seen[a.Loc]++
			return seen[a.Loc] <= matched[a.Loc]
		}
		return true
	})
	thatD := trace.Project(that, func(a ioa.Action) bool { return a.Kind == ioa.KindCrash || isD(a) })
	if err := trace.IsSampling(thatD, tD, n, isD); err != nil {
		return nil, fmt.Errorf("selfimpl: tˆ is not a sampling of t|Iˆ∪OD (Lemma 6): %w", err)
	}

	// Lemma 9: t|Iˆ∪OD′ is a constrained reordering of rIO(tˆ|Iˆ∪OD).
	tD2 := trace.Project(t, func(a ioa.Action) bool { return a.Kind == ioa.KindCrash || isD2(a) })
	if err := trace.IsConstrainedReordering(tD2, ren.ApplyTrace(thatD)); err != nil {
		return nil, fmt.Errorf("selfimpl: t|Iˆ∪OD′ is not a constrained reordering of rIO(tˆ) (Lemma 9): %w", err)
	}

	return &ProofReport{REV: rev, SampledLen: sampled, That: that}, nil
}
