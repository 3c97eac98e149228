package ioa

import "fmt"

// Automaton is a task-deterministic I/O automaton (paper Section 2.5): in
// every state, each task enables at most one action, and performing an action
// in a state yields a unique successor state.
//
// The interface models a *mutable* automaton instance: Input and Fire change
// the receiver's state in place.  Clone produces an independent deep copy so
// that alternative futures can be explored (the tagged execution tree of
// Section 8), and AppendEncode appends a canonical encoding determined
// exactly by the automaton's current state.
//
// Contract:
//
//   - Accepts must be a pure function of the action (not of the state); it
//     delimits the automaton's input signature.
//   - Input must handle every accepted action in every state (input actions
//     are enabled in all states, Section 2.1).
//   - Enabled(t) reports the unique action currently enabled in task t, if
//     any; it must not mutate state, and it must be a function of the
//     receiver's own state only (never of shared or global state).  The
//     System's incremental ready-set relies on this: after an event it
//     re-polls only the automata whose Fire or Input ran.
//   - Automata MAY additionally implement Signatured to declare their input
//     signature as routing keys; see the Signatured contract.
//   - Fire(a) applies the effect of locally controlled action a; callers only
//     pass actions previously returned by Enabled in the current state.
//   - Clone must return a deep copy sharing no mutable state.
//   - AppendEncode must append equal bytes exactly for automata in equal
//     states, keep the bytes already in dst, and not mutate the automaton.
//     It is the state's only encoding: the execution-tree explorer interns
//     every reachable composed state by these bytes, appended into one
//     reused buffer.
type Automaton interface {
	// Name identifies the automaton within a composition (unique per System).
	Name() string
	// Accepts reports whether a is an input action of this automaton.
	Accepts(a Action) bool
	// Input applies the effect of input action a.
	Input(a Action)
	// NumTasks returns the number of tasks (partition classes of the
	// locally controlled actions).
	NumTasks() int
	// TaskLabel returns a human-readable label for task t.
	TaskLabel(t int) string
	// Enabled returns the unique action enabled in task t, if any.
	Enabled(t int) (Action, bool)
	// Fire applies the effect of locally controlled action a.
	Fire(a Action)
	// Clone returns an independent deep copy.
	Clone() Automaton
	// AppendEncode appends a canonical encoding of the current state to
	// dst and returns the extended slice.
	AppendEncode(dst []byte) []byte
}

// TaskRef names one task of one automaton inside a System.
type TaskRef struct {
	Auto int // index into the System's automaton list
	Task int // task index within that automaton
}

// String implements fmt.Stringer.
func (t TaskRef) String() string { return fmt.Sprintf("task(%d.%d)", t.Auto, t.Task) }
