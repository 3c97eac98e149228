package ioa_test

import (
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
)

// fuzzSeedActions harvests a seed corpus from a real execution: the trace of
// the E1-style detector composition, so the fuzzer starts from every action
// shape (crash, send, receive, FD output) the engines actually produce
// rather than from synthetic strings.
func fuzzSeedActions(f *testing.F) []ioa.Action {
	f.Helper()
	det, err := afd.Lookup(afd.FamilyP, 3)
	if err != nil {
		f.Fatal(err)
	}
	sys := ioa.MustNewSystem(
		append([]ioa.Automaton{det.Automaton(3), system.NewCrash(system.CrashOf(1))},
			system.Channels(3)...)...)
	sched.RoundRobin(sys, sched.Options{MaxSteps: 120})
	return sys.Trace()
}

// FuzzActionAppendEncode checks the allocation-free rendering and encoding
// fast paths against their reference implementations on arbitrary action
// values:
//
//   - Action.AppendTo must append exactly String()'s bytes, including on the
//     ⊥ action, unknown kinds, and payloads containing the rendering's own
//     delimiter characters;
//   - System.AppendEncode must append exactly the bytes the channel
//     encoding's format spells out — "C0>1[", the queued payloads joined by
//     \x1f, "]", then EncSep and the empty reverse channel — for channel
//     states carrying the fuzzed payload and name (the in-place encoding
//     path the execution-tree explorer fingerprints states with).
func FuzzActionAppendEncode(f *testing.F) {
	for _, a := range fuzzSeedActions(f) {
		f.Add(uint8(a.Kind), a.Name, int(a.Loc), int(a.Peer), a.Payload)
	}
	f.Add(uint8(0), "", int(ioa.NoLoc), int(ioa.NoLoc), "")      // ⊥ action
	f.Add(uint8(200), "x", 0, 0, "p")                            // unknown kind
	f.Add(uint8(ioa.KindSend), "send", 0, 1, "m,2)_0")           // delimiter injection
	f.Add(uint8(ioa.KindFD), "FD-Ω", 2, int(ioa.NoLoc), "{0,1}") // set payload
	f.Fuzz(func(t *testing.T, kind uint8, name string, loc, peer int, payload string) {
		act := ioa.Action{
			Kind: ioa.Kind(kind), Name: name,
			Loc: ioa.Loc(loc), Peer: ioa.Loc(peer), Payload: payload,
		}
		want := act.String()
		if got := string(act.AppendTo(nil)); got != want {
			t.Fatalf("AppendTo(nil) = %q, String() = %q", got, want)
		}
		prefix := "pre\x00fix|"
		if got := string(act.AppendTo([]byte(prefix))); got != prefix+want {
			t.Fatalf("AppendTo(prefix) = %q, want %q", got, prefix+want)
		}

		ch := system.NewChannel(0, 1)
		ch.Input(ioa.Send(0, 1, payload))
		ch.Input(ioa.Send(0, 1, name))
		sys := ioa.MustNewSystem(ch, system.NewChannel(1, 0))
		wantEnc := "C0>1[" + payload + "\x1f" + name + "]\x1eC1>0[]"
		if got := string(sys.AppendEncode(nil)); got != wantEnc {
			t.Fatalf("AppendEncode = %q, want %q", got, wantEnc)
		}
	})
}
