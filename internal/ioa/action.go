// Package ioa implements the I/O automata framework of Lynch (Distributed
// Algorithms, ch. 8) as used by Cornejo, Lynch, and Sastry in "Asynchronous
// Failure Detectors" (Section 2 of the paper).
//
// An automaton is a (task-deterministic) state machine that interacts with
// other automata through named external actions.  A collection of automata is
// composed into a System; output actions of one automaton are matched with
// same-valued input actions of others and performed together.  Executions are
// produced by schedulers (package sched) that repeatedly pick an enabled task.
//
// Compared to the mathematical framework, automata here are mutable Go values
// that additionally support Clone (deep state copy, used by the execution-tree
// machinery of the paper's Section 8) and AppendEncode (canonical state
// bytes, used to collapse the infinite execution tree into a finite
// reachable graph).
package ioa

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Loc identifies a location (the paper's set Π of n location IDs).  Locations
// are numbered 0..n-1.  NoLoc is the paper's ⊥ placeholder: the location of an
// action that occurs at no location.
type Loc int

// NoLoc is the ⊥ location.
const NoLoc Loc = -1

// String returns "⊥" for NoLoc and the decimal index otherwise.
func (l Loc) String() string {
	if l == NoLoc {
		return "⊥"
	}
	return strconv.Itoa(int(l))
}

// Kind classifies actions by their role in the Figure-1 system model.  The
// classification into input/output/internal is per automaton (an output of the
// channel automaton is an input of a process automaton); Kind instead records
// what the action *is*, which is what specifications quantify over.
type Kind uint8

// Action kinds.  Enums start at one so the zero Action is invalid and easy to
// detect (the zero value doubles as the paper's ⊥ action).
const (
	// KindCrash is a crashi event (an element of the paper's set Iˆ).
	KindCrash Kind = iota + 1
	// KindSend is send(m, j)i: process i sends message m to process j.
	KindSend
	// KindReceive is receive(m, i)j: process j receives message m from i.
	KindReceive
	// KindFD is a failure-detector output event at a location (an element
	// of OD for some AFD D).
	KindFD
	// KindEnvIn is an input from the environment to a process automaton
	// (e.g. propose(v)i in the consensus environment of Algorithm 4).
	KindEnvIn
	// KindEnvOut is an output from a process automaton to the environment
	// (e.g. decide(v)i).
	KindEnvOut
	// KindInternal is an internal action of some automaton.
	KindInternal
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindSend:
		return "send"
	case KindReceive:
		return "receive"
	case KindFD:
		return "fd"
	case KindEnvIn:
		return "envin"
	case KindEnvOut:
		return "envout"
	case KindInternal:
		return "internal"
	default:
		return "invalid"
	}
}

// Action is a named action occurrence template.  Actions are pure values and
// are comparable: two automata interact on an action exactly when they name
// the same Action value, mirroring the paper's matching of same-named actions
// under composition (Section 2.3).
//
// The fields are:
//
//	Kind    – the role of the action in the system model;
//	Name    – the action family, e.g. "FD-Ω", "propose", "decide", or a
//	          message tag for send/receive;
//	Loc     – the location at which the action occurs (loc(a) in the paper);
//	Peer    – the other location for send/receive (the j in send(m, j)i and
//	          the i in receive(m, i)j); NoLoc otherwise;
//	Payload – a canonical string encoding of the action's parameter (the
//	          message m, the FD output value, the proposed value, ...).
//
// The zero Action is not a valid action and stands in for the paper's ⊥.
type Action struct {
	Kind    Kind
	Name    string
	Loc     Loc
	Peer    Loc
	Payload string
}

// IsZero reports whether a is the ⊥ (absent) action.
func (a Action) IsZero() bool { return a.Kind == 0 }

// String renders the action in the paper's notation, e.g. "crash_1",
// "send(m,2)_0", "FD-Ω(1)_2".
func (a Action) String() string {
	switch a.Kind {
	case 0:
		return "⊥"
	case KindCrash:
		return fmt.Sprintf("crash_%v", a.Loc)
	case KindSend:
		return fmt.Sprintf("send(%s,%v)_%v", a.Payload, a.Peer, a.Loc)
	case KindReceive:
		return fmt.Sprintf("receive(%s,%v)_%v", a.Payload, a.Peer, a.Loc)
	default:
		if a.Payload == "" {
			return fmt.Sprintf("%s_%v", a.Name, a.Loc)
		}
		return fmt.Sprintf("%s(%s)_%v", a.Name, a.Payload, a.Loc)
	}
}

// Canonical action-family names used by the Crash/Send/Receive constructors.
// Automata that route by SigKey match on these, so actions of those kinds
// must be built through the constructors (every decoder and generator in the
// repository does).
const (
	NameCrash   = "crash"
	NameSend    = "send"
	NameReceive = "receive"
)

// Crash returns the crashi action for location i.
func Crash(i Loc) Action {
	return Action{Kind: KindCrash, Name: NameCrash, Loc: i, Peer: NoLoc}
}

// Send returns the action send(m, to)from.
func Send(from, to Loc, m string) Action {
	return Action{Kind: KindSend, Name: NameSend, Loc: from, Peer: to, Payload: m}
}

// Receive returns the action receive(m, from)to.
func Receive(to, from Loc, m string) Action {
	return Action{Kind: KindReceive, Name: NameReceive, Loc: to, Peer: from, Payload: m}
}

// FDOutput returns a failure-detector output event of family name at location
// i carrying payload.  The family name distinguishes detectors (and renamings
// of detectors, Section 5.3): FD-Ω outputs never match FD-P inputs.
func FDOutput(name string, i Loc, payload string) Action {
	return Action{Kind: KindFD, Name: name, Loc: i, Peer: NoLoc, Payload: payload}
}

// EnvInput returns an environment→process action (e.g. propose).
func EnvInput(name string, i Loc, payload string) Action {
	return Action{Kind: KindEnvIn, Name: name, Loc: i, Peer: NoLoc, Payload: payload}
}

// EnvOutput returns a process→environment action (e.g. decide).
func EnvOutput(name string, i Loc, payload string) Action {
	return Action{Kind: KindEnvOut, Name: name, Loc: i, Peer: NoLoc, Payload: payload}
}

// Internal returns an internal action of the automaton owning it.
func Internal(name string, i Loc, payload string) Action {
	return Action{Kind: KindInternal, Name: name, Loc: i, Peer: NoLoc, Payload: payload}
}

// EncodeLocSet canonically encodes a set of locations as a payload string,
// e.g. {2,0,1} → "{0,1,2}".  The encoding is order-independent, so two equal
// sets always produce equal Action values.  With DecodeLocSet it is the
// map-based reference that LocSet, which the repository holds location sets
// in, is fuzzed against.
func EncodeLocSet(set map[Loc]bool) string {
	locs := make([]int, 0, len(set))
	for l, in := range set {
		if in {
			locs = append(locs, int(l))
		}
	}
	sort.Ints(locs)
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range locs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(l))
	}
	b.WriteByte('}')
	return b.String()
}

// DecodeLocSet parses a payload produced by EncodeLocSet.
func DecodeLocSet(s string) (map[Loc]bool, error) {
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return nil, fmt.Errorf("ioa: malformed location set %q", s)
	}
	set := make(map[Loc]bool)
	body := s[1 : len(s)-1]
	if body == "" {
		return set, nil
	}
	for _, part := range strings.Split(body, ",") {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("ioa: malformed location set %q: %v", s, err)
		}
		set[Loc(v)] = true
	}
	return set, nil
}

// EncodeLoc canonically encodes a single location payload.
func EncodeLoc(l Loc) string { return strconv.Itoa(int(l)) }

// DecodeLoc parses a payload produced by EncodeLoc.
func DecodeLoc(s string) (Loc, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return NoLoc, fmt.Errorf("ioa: malformed location %q: %v", s, err)
	}
	return Loc(v), nil
}
