package valence

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/ioa"
	"repro/internal/system"
)

// SimilarModuloI implements the ∼i relation of Section 8.3 on two composed
// system states s1 and s2 (the config tags of two tree nodes): s1 ∼i s2 iff
//
//	(1) location i has crashed in both;
//	(2) every process automaton at j ≠ i is in the same state;
//	(3) every channel between locations ≠ i is in the same state;
//	(4) for every j ≠ i, the queue of Chan[i→j] in s1 is a prefix of the
//	    queue of Chan[i→j] in s2;
//	(5) every environment automaton at j ≠ i is in the same state.
//
// (Condition 6 of the paper — equal FD-sequence tags — is the caller's to
// check: it lives in the tree node, not the system state.)
//
// The systems must be structurally identical compositions built by this
// package (process automata, channels, environments in the same order).
func SimilarModuloI(s1, s2 *ioa.System, i ioa.Loc) error {
	a1, a2 := s1.Automata(), s2.Automata()
	if len(a1) != len(a2) {
		return fmt.Errorf("valence: compositions differ in size (%d vs %d)", len(a1), len(a2))
	}
	for k := range a1 {
		if a1[k].Name() != a2[k].Name() {
			return fmt.Errorf("valence: composition order differs at %d (%s vs %s)", k, a1[k].Name(), a2[k].Name())
		}
		switch x := a1[k].(type) {
		case *system.Proc:
			y := a2[k].(*system.Proc)
			if x.ID() == i {
				if !x.Failed() || !y.Failed() {
					return fmt.Errorf("valence: location %v not crashed in both states (condition 1)", i)
				}
				continue // the crashed process's state is unconstrained
			}
			if !bytes.Equal(x.AppendEncode(nil), y.AppendEncode(nil)) {
				return fmt.Errorf("valence: process %s differs (condition 2)", x.Name())
			}
		case *system.Channel:
			y := a2[k].(*system.Channel)
			switch {
			case x.From == i:
				// Condition 4: s1's queue must be a prefix of s2's.
				q1, q2 := x.Queue(), y.Queue()
				if len(q1) > len(q2) {
					return fmt.Errorf("valence: %s queue longer in first state (condition 4)", x.Name())
				}
				for idx := range q1 {
					if q1[idx] != q2[idx] {
						return fmt.Errorf("valence: %s queue not a prefix (condition 4)", x.Name())
					}
				}
			case x.To == i:
				// Channels *into* the crashed location are unconstrained.
			default:
				if !bytes.Equal(x.AppendEncode(nil), y.AppendEncode(nil)) {
					return fmt.Errorf("valence: %s differs (condition 3)", x.Name())
				}
			}
		default:
			// Environment automata (and any other component) at j ≠ i must
			// agree; components at i are unconstrained.
			if locOfAutomaton(a1[k]) == i {
				continue
			}
			if !bytes.Equal(a1[k].AppendEncode(nil), a2[k].AppendEncode(nil)) {
				return fmt.Errorf("valence: %s differs (condition 5)", a1[k].Name())
			}
		}
	}
	return nil
}

// locOfAutomaton extracts the location from the "name[loc]" convention used
// by the per-location automata in this repository; NoLoc if none.
func locOfAutomaton(a ioa.Automaton) ioa.Loc {
	name := a.Name()
	open := strings.LastIndexByte(name, '[')
	if open < 0 || !strings.HasSuffix(name, "]") {
		return ioa.NoLoc
	}
	l, err := ioa.DecodeLoc(name[open+1 : len(name)-1])
	if err != nil {
		return ioa.NoLoc
	}
	return l
}
