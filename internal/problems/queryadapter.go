package problems

import (
	"fmt"

	"repro/internal/ioa"
)

// QueryAdapter wraps a unilateral AFD stream in the query-based interface
// of Jayanti-Toueg [20] discussed in Sections 1.1 and 10.1: processes query;
// the adapter answers each query with the detector's latest output at the
// querying location.  The answer is a valid detector output for a time
// inside the query-response interval, which is exactly [20]'s correctness
// condition for failure-detector implementations.
//
// Two paper points become executable with it:
//
//   - a unilateral AFD implements the query-based interface trivially (this
//     adapter), whereas the reverse direction is what collapses detector
//     classes — P+ queried looks like P queried (footnote 1);
//   - the adapter is "lazy" [10]: it produces one answer per query, however
//     fast the underlying detector emits — see the response/output counts in
//     the tests.
//
// Answers are emitted as KindFD events of family Family+"?" so they never
// collide with the detector's own outputs under composition.
type QueryAdapter struct {
	family  string
	n       int
	latest  []string // latest payload per location; "" before the first
	pending []ioa.Loc
	crashed ioa.LocSet
}

var _ ioa.Automaton = (*QueryAdapter)(nil)

// QueryFamily returns the answer family for a detector family.
func QueryFamily(family string) string { return family + "?" }

// QueryFor returns the query action for the given detector family at i.
func QueryFor(family string, i ioa.Loc) ioa.Action {
	return ioa.EnvInput(ActNameQuery, i, family)
}

// NewQueryAdapter returns the adapter for the given detector family.
func NewQueryAdapter(family string, n int) *QueryAdapter {
	return &QueryAdapter{family: family, n: n, latest: make([]string, n)}
}

// Name implements ioa.Automaton.
func (q *QueryAdapter) Name() string { return "query:" + q.family }

// Accepts implements ioa.Automaton: detector outputs, matching queries, and
// crashes.
func (q *QueryAdapter) Accepts(a ioa.Action) bool {
	switch {
	case a.Kind == ioa.KindCrash:
		return true
	case a.Kind == ioa.KindFD && a.Name == q.family:
		return true
	case a.Kind == ioa.KindEnvIn && a.Name == ActNameQuery && a.Payload == q.family:
		return true
	default:
		return false
	}
}

// Input implements ioa.Automaton.
func (q *QueryAdapter) Input(a ioa.Action) {
	switch {
	case a.Kind == ioa.KindCrash:
		if int(a.Loc) < q.n {
			q.crashed.Add(a.Loc)
		}
	case a.Kind == ioa.KindFD:
		q.latest[a.Loc] = a.Payload
	case a.Kind == ioa.KindEnvIn:
		q.pending = append(q.pending, a.Loc)
	}
	q.pending = dropCrashed(q.pending, q.crashed)
}

// NumTasks implements ioa.Automaton.
func (q *QueryAdapter) NumTasks() int { return 1 }

// TaskLabel implements ioa.Automaton.
func (q *QueryAdapter) TaskLabel(int) string { return "answer" }

// Enabled implements ioa.Automaton: answer the oldest pending query, whose
// querier Input and Fire keep alive, once the querier has received at least
// one detector output (before that there is no valid value to report, so
// the adapter keeps it pending — the detector's validity property
// guarantees outputs keep coming).
func (q *QueryAdapter) Enabled(int) (ioa.Action, bool) {
	if len(q.pending) == 0 {
		return ioa.Action{}, false
	}
	l := q.pending[0]
	if q.latest[l] == "" {
		return ioa.Action{}, false
	}
	return ioa.FDOutput(QueryFamily(q.family), l, q.latest[l]), true
}

// Fire implements ioa.Automaton.
func (q *QueryAdapter) Fire(ioa.Action) { q.pending = dropCrashed(q.pending[1:], q.crashed) }

// dropCrashed drops the queries at the head of pending whose querier
// crashed: no answer is owed to them.  Input and Fire call it, so Enabled
// reads the head without changing the automaton.
func dropCrashed(pending []ioa.Loc, crashed ioa.LocSet) []ioa.Loc {
	for len(pending) > 0 && crashed.Has(pending[0]) {
		pending = pending[1:]
	}
	return pending
}

// Clone implements ioa.Automaton.
func (q *QueryAdapter) Clone() ioa.Automaton {
	c := &QueryAdapter{family: q.family, n: q.n, crashed: q.crashed}
	c.latest = append([]string(nil), q.latest...)
	c.pending = append([]ioa.Loc(nil), q.pending...)
	return c
}

// AppendEncode implements ioa.Automaton.
func (q *QueryAdapter) AppendEncode(dst []byte) []byte {
	dst = append(dst, "QA:"...)
	dst = append(dst, q.family...)
	dst = append(dst, '|')
	for i, p := range q.latest {
		if i > 0 {
			dst = append(dst, '\x1f')
		}
		dst = append(dst, p...)
	}
	dst = append(dst, '|')
	for _, l := range q.pending {
		dst = append(l.AppendTo(dst), ',')
	}
	dst = append(dst, '|')
	for i := ioa.Loc(0); int(i) < q.n; i++ {
		if q.crashed.Has(i) {
			dst = append(dst, 'x')
		} else {
			dst = append(dst, '.')
		}
	}
	return dst
}

// CheckQueryAnswers verifies the [20]-style correctness of an adapter trace:
// every answer at a location equals some detector output at that location
// that occurred before the answer and at or after the preceding query.
// (The adapter answers with the latest value, which satisfies the stronger
// "between query and response" condition whenever a fresh output arrived;
// this checker enforces the weaker, order-theoretic half that is decidable
// from the trace alone: answered payloads are genuine past outputs.)
func CheckQueryAnswers(t []ioa.Action, family string) error {
	answerFam := QueryFamily(family)
	seen := make(map[ioa.Loc]map[string]bool)
	for _, a := range t {
		switch {
		case a.Kind == ioa.KindFD && a.Name == family:
			if seen[a.Loc] == nil {
				seen[a.Loc] = make(map[string]bool)
			}
			seen[a.Loc][a.Payload] = true
		case a.Kind == ioa.KindFD && a.Name == answerFam:
			if !seen[a.Loc][a.Payload] {
				return fmt.Errorf("problems: answer %v is not a past detector output", a)
			}
		}
	}
	return nil
}
