package ioa

import "fmt"

// ReplayTrace checks that t is a trace of the composition by replaying it
// against sys (which must be in its start state).  isExternal declares
// which actions arrive from outside the composition (input actions are
// enabled in every state, Section 2.1, so they are always accepted); every
// other event must be the currently enabled action of some task and is
// performed by its owner.
//
// t may also continue a trace whose earlier events were already replayed
// into sys: first is the index of t[0] in the whole trace, and events are
// numbered from it: a trace replayed in pieces reports the same numbers as
// one replayed whole.  ReplayTrace advances sys in place, through Apply, so
// sys's post-Apply observers see every replayed event.  On failure it
// reports the number of the offending event; on success it returns -1, nil.
//
// This is the executable form of "t is a trace of A" used by the Section
// 7.3 crash-independence arguments: a sequence obtained by surgery on a
// real trace (e.g. deleting its crash events, Lemma 24) is certified by
// replaying it.
func ReplayTrace(sys *System, t []Action, first int, isExternal func(Action) bool) (int, error) {
	// first is added only where an event is reported, so the per-event
	// loop stays the whole-trace replay's (an offset index kept per event
	// measured 8–10% slower explain-query ops).
	for idx, act := range t {
		if isExternal != nil && isExternal(act) {
			accepted := false
			for _, a := range sys.Automata() {
				if a.Accepts(act) {
					accepted = true
					break
				}
			}
			if !accepted {
				return first + idx, fmt.Errorf("ioa: external event %d (%v) accepted by no automaton", first+idx, act)
			}
			sys.Apply(-1, act)
			continue
		}
		owner := -1
		for _, tr := range sys.Tasks() {
			if a, ok := sys.Enabled(tr); ok && a == act {
				owner = tr.Auto
				break
			}
		}
		if owner < 0 {
			return first + idx, fmt.Errorf("ioa: event %d (%v) not enabled by any task", first+idx, act)
		}
		sys.Apply(owner, act)
	}
	return -1, nil
}
