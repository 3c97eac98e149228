package ioa

import (
	"bytes"
	"fmt"
)

// CheckAutomatonContract exercises the structural obligations every
// Automaton implementation carries, independent of its behavior:
//
//	– Name is non-empty;
//	– every task has a non-empty label;
//	– Enabled is within task range and stable across repeated queries;
//	– AppendEncode is stable across calls and keeps the bytes in dst;
//	– Clone returns a distinct value in an equal-encoding state;
//	– a PostFireEncoder's preview of every enabled action, and a
//	  PostInputEncoder's of every accepted action among inputs, leaves the
//	  receiver's encoding unchanged and, when it reports ok, equals the
//	  encoding of a clone after that event.
//
// It is a test helper shared by every package that defines automata.
func CheckAutomatonContract(a Automaton, inputs ...Action) error {
	if a.Name() == "" {
		return fmt.Errorf("ioa: automaton has empty name")
	}
	enc := a.AppendEncode(nil)
	if !bytes.Equal(a.AppendEncode(nil), enc) {
		return fmt.Errorf("ioa: %s AppendEncode unstable", a.Name())
	}
	if got := a.AppendEncode([]byte(contractPrefix)); string(got) != contractPrefix+string(enc) {
		return fmt.Errorf("ioa: %s AppendEncode(%q) = %q, want the prefix kept", a.Name(), contractPrefix, got)
	}
	for t := 0; t < a.NumTasks(); t++ {
		if a.TaskLabel(t) == "" {
			return fmt.Errorf("ioa: %s task %d has empty label", a.Name(), t)
		}
		a1, ok1 := a.Enabled(t)
		a2, ok2 := a.Enabled(t)
		if ok1 != ok2 || a1 != a2 {
			return fmt.Errorf("ioa: %s task %d Enabled unstable", a.Name(), t)
		}
		if ok1 {
			if err := checkPostEncode(a, enc, a1, false); err != nil {
				return err
			}
		}
	}
	for _, in := range inputs {
		if a.Accepts(in) {
			if err := checkPostEncode(a, enc, in, true); err != nil {
				return err
			}
		}
	}
	c := a.Clone()
	if c == nil {
		return fmt.Errorf("ioa: %s Clone returned nil", a.Name())
	}
	if fmt.Sprintf("%p", c) == fmt.Sprintf("%p", a) {
		return fmt.Errorf("ioa: %s Clone returned the receiver", a.Name())
	}
	if got := c.AppendEncode(nil); !bytes.Equal(got, enc) {
		return fmt.Errorf("ioa: %s clone encodes differently:\n %q\n %q", a.Name(), got, enc)
	}
	if c.Name() != a.Name() {
		return fmt.Errorf("ioa: %s clone renamed itself to %s", a.Name(), c.Name())
	}
	return nil
}

// contractPrefix is the dst every encoding CheckAutomatonContract requests
// must keep.
const contractPrefix = "pre\x1e"

// checkPostEncode compares a's preview of its encoding after act — fired,
// or taken as input when input is set — with the encoding of a clone after
// act.  An automaton without the matching post-event encoder passes.
func checkPostEncode(a Automaton, enc []byte, act Action, input bool) error {
	var post []byte
	var ok bool
	if pi, is := a.(PostInputEncoder); input && is {
		post, ok = pi.AppendEncodePostInput(act, []byte(contractPrefix))
	} else if pf, is := a.(PostFireEncoder); !input && is {
		post, ok = pf.AppendEncodePostFire(act, []byte(contractPrefix))
	}
	if !bytes.Equal(a.AppendEncode(nil), enc) {
		return fmt.Errorf("ioa: %s previewing %v moved the automaton", a.Name(), act)
	}
	if !ok {
		return nil
	}
	c := a.Clone()
	if input {
		c.Input(act)
	} else {
		c.Fire(act)
	}
	if want := c.AppendEncode([]byte(contractPrefix)); !bytes.Equal(post, want) {
		return fmt.Errorf("ioa: %s previews its encoding after %v as\n %q\nbut a clone after it encodes\n %q", a.Name(), act, post, want)
	}
	return nil
}
