package problems

import (
	"fmt"

	"repro/internal/ioa"
)

// env is the per-location environment automaton behind URB's broadcaster,
// TRB's sender, NBAC's voter and the querier of the query-based interaction
// mode of Section 10.1: it emits up to k copies of one environment input at
// its location, absorbs one reply family there, and stops on a crash.
type env struct {
	name, label string     // automaton name and task label
	in          ioa.Action // the input it emits
	reply       ioa.Action // the absorbed replies' Kind and Name
	k, sent     int
	stopped     bool
}

var _ ioa.Automaton = (*env)(nil)

// newEnv returns the environment at in.Loc emitting in up to k times and
// absorbing replies of the given kind and name; name and label are its
// automaton name and task label.
func newEnv(name, label string, in ioa.Action, k int, replyKind ioa.Kind, replyName string) *env {
	return &env{
		name: fmt.Sprintf("%s[%v]", name, in.Loc), label: label,
		in: in, reply: ioa.Action{Kind: replyKind, Name: replyName}, k: k,
	}
}

// Name implements ioa.Automaton.
func (e *env) Name() string { return e.name }

// Accepts implements ioa.Automaton: the replies and the crash at its
// location.
func (e *env) Accepts(a ioa.Action) bool {
	if a.Loc != e.in.Loc {
		return false
	}
	return a.Kind == ioa.KindCrash || (a.Kind == e.reply.Kind && a.Name == e.reply.Name)
}

// Input implements ioa.Automaton: a crash stops the automaton; replies are
// absorbed.
func (e *env) Input(a ioa.Action) {
	if a.Kind == ioa.KindCrash {
		e.stopped = true
	}
}

// NumTasks implements ioa.Automaton.
func (e *env) NumTasks() int { return 1 }

// TaskLabel implements ioa.Automaton.
func (e *env) TaskLabel(int) string { return e.label }

// Enabled implements ioa.Automaton.
func (e *env) Enabled(int) (ioa.Action, bool) {
	if e.stopped || e.sent >= e.k {
		return ioa.Action{}, false
	}
	return e.in, true
}

// Fire implements ioa.Automaton.
func (e *env) Fire(ioa.Action) { e.sent++ }

// Clone implements ioa.Automaton.
func (e *env) Clone() ioa.Automaton {
	c := *e
	return &c
}

// AppendEncode implements ioa.Automaton.
func (e *env) AppendEncode(dst []byte) []byte {
	return fmt.Appendf(dst, "%s|%s|%d/%d|%t", e.name, e.in.Payload, e.sent, e.k, e.stopped)
}
