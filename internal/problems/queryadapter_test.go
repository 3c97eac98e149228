package problems

import (
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/trace"
)

// querierFor issues k queries for a specific detector family at a location.
type familyQuerier struct {
	id      ioa.Loc
	family  string
	queries int
	sent    int
	stopped bool
}

func (q *familyQuerier) Name() string { return "fq[" + q.id.String() + "]" }
func (q *familyQuerier) Accepts(a ioa.Action) bool {
	return a.Kind == ioa.KindCrash && a.Loc == q.id
}
func (q *familyQuerier) Input(ioa.Action)     { q.stopped = true }
func (q *familyQuerier) NumTasks() int        { return 1 }
func (q *familyQuerier) TaskLabel(int) string { return "query" }
func (q *familyQuerier) Enabled(int) (ioa.Action, bool) {
	if q.stopped || q.sent >= q.queries {
		return ioa.Action{}, false
	}
	return QueryFor(q.family, q.id), true
}
func (q *familyQuerier) Fire(ioa.Action) { q.sent++ }
func (q *familyQuerier) Clone() ioa.Automaton {
	c := *q
	return &c
}
func (q *familyQuerier) AppendEncode(dst []byte) []byte {
	return q.id.AppendTo(append(dst, "FQ"...))
}

// TestQueryAdapterLaziness: the adapter answers exactly one event per query
// while the underlying detector emits hundreds — the [10] "lazy" property.
func TestQueryAdapterLaziness(t *testing.T) {
	const n, queries = 3, 2
	d, err := afd.Lookup(afd.FamilyP, n)
	if err != nil {
		t.Fatal(err)
	}
	autos := []ioa.Automaton{d.Automaton(n), NewQueryAdapter(afd.FamilyP, n)}
	for i := 0; i < n; i++ {
		autos = append(autos, &familyQuerier{id: ioa.Loc(i), family: afd.FamilyP, queries: queries})
	}
	autos = append(autos, system.NewCrash(system.CrashOf(2)))
	sys := ioa.MustNewSystem(autos...)
	sched.RoundRobin(sys, sched.Options{MaxSteps: 600, Gate: sched.CrashesAfter(100, 0)})

	tr := sys.Trace()
	outputs := trace.Count(tr, func(a ioa.Action) bool {
		return a.Kind == ioa.KindFD && a.Name == afd.FamilyP
	})
	answers := trace.Count(tr, func(a ioa.Action) bool {
		return a.Kind == ioa.KindFD && a.Name == QueryFamily(afd.FamilyP)
	})
	// Location 2 crashes after its queries are answered or dropped; live
	// locations get exactly `queries` answers each.
	if answers > n*queries {
		t.Fatalf("answers = %d, want ≤ %d (one per query)", answers, n*queries)
	}
	if answers < 2*queries {
		t.Fatalf("answers = %d, want ≥ %d (live locations answered)", answers, 2*queries)
	}
	if outputs < 10*answers {
		t.Fatalf("outputs = %d vs answers = %d: laziness not demonstrated", outputs, answers)
	}
	if err := CheckQueryAnswers(tr, afd.FamilyP); err != nil {
		t.Fatal(err)
	}
}

func TestQueryAdapterWaitsForFirstOutput(t *testing.T) {
	q := NewQueryAdapter(afd.FamilyP, 2)
	q.Input(QueryFor(afd.FamilyP, 0))
	if _, ok := q.Enabled(0); ok {
		t.Fatal("adapter answered before any detector output")
	}
	q.Input(ioa.FDOutput(afd.FamilyP, 0, "{}"))
	act, ok := q.Enabled(0)
	if !ok || act != ioa.FDOutput(QueryFamily(afd.FamilyP), 0, "{}") {
		t.Fatalf("Enabled = %v, %t", act, ok)
	}
}

func TestQueryAdapterSkipsCrashedQueriers(t *testing.T) {
	q := NewQueryAdapter(afd.FamilyP, 2)
	q.Input(ioa.FDOutput(afd.FamilyP, 0, "{}"))
	q.Input(ioa.FDOutput(afd.FamilyP, 1, "{}"))
	q.Input(QueryFor(afd.FamilyP, 1))
	q.Input(QueryFor(afd.FamilyP, 0))
	q.Input(ioa.Crash(1))
	act, ok := q.Enabled(0)
	if !ok || act.Loc != 0 {
		t.Fatalf("crashed querier not skipped: %v %t", act, ok)
	}
}

func TestCheckQueryAnswersRejectsInvention(t *testing.T) {
	tr := trace.T{
		ioa.FDOutput(afd.FamilyP, 0, "{}"),
		ioa.FDOutput(QueryFamily(afd.FamilyP), 0, "{1}"), // never output
	}
	if err := CheckQueryAnswers(tr, afd.FamilyP); err == nil {
		t.Fatal("invented answer accepted")
	}
}

func TestQueryAdapterContract(t *testing.T) {
	q := NewQueryAdapter(afd.FamilyP, 2)
	q.Input(ioa.FDOutput(afd.FamilyP, 1, "{0}"))
	q.Input(QueryFor(afd.FamilyP, 1))
	if err := ioa.CheckAutomatonContract(q); err != nil {
		t.Fatal(err)
	}
	// The bytes the adapter's fmt-based encoder wrote for this state.
	if got, want := string(q.AppendEncode(nil)), "QA:FD-P|\x1f{0}|1,|.."; got != want {
		t.Fatalf("AppendEncode = %q, want %q", got, want)
	}
	q.Input(ioa.Crash(0))
	q.Input(QueryFor(afd.FamilyP, 0))
	if got, want := string(q.AppendEncode(nil)), "QA:FD-P|\x1f{0}|1,0,|x."; got != want {
		t.Fatalf("after crash_0 and a query at 0: AppendEncode = %q, want %q", got, want)
	}
}
