package system

import (
	"bytes"
	"testing"

	"repro/internal/ioa"
)

// TestAppendEncodeMatchesEncode drives each automaton of this package
// through representative states and checks its AppendEncode bytes against
// literals the fmt-based Encode methods these encoders replaced produced
// on the same states; the golden hashes and the explorer's interned keys
// depend on the bytes staying put.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	chFull := NewChannel(2, 0)
	chFull.Input(ioa.Send(2, 0, "a"))
	chFull.Input(ioa.Send(2, 0, "b|c\x1fd"))

	// Lossy channels append "@sent" to their encoding; the send counter is
	// part of state identity.
	chLossy := NetChannels(2, NewNet(NetSpec{Drop: 100, Seed: 7}))[0]
	chLossy.Input(ioa.Send(0, 1, "m1"))
	chLossy.Input(ioa.Send(0, 1, "m2"))

	crFired := NewCrash(CrashOf(1))
	crFired.Fire(ioa.Crash(1))

	envStopped := NewConsensusEnv(2)
	envStopped.Input(ioa.Crash(2))

	procBusy := NewProc("echo", 1, 2, &echoMachine{n: 2, self: 1}, []string{"FD-Ω"}, []string{"propose"})
	procBusy.Input(ioa.Receive(1, 0, "hello"))
	procFailed := NewProc("echo", 1, 2, &echoMachine{n: 2, self: 1}, []string{"FD-Ω"}, []string{"propose"})
	procFailed.Input(ioa.Crash(1))

	// Tracked channels prefix 'T' and append their stamps; a duplicated
	// send enqueues its stamp twice.
	clock := NewSendClock()
	tc := NewTrackedChannel(0, 1, clock)
	tcFull := NewTrackedChannel(1, 0, clock)
	tcFull.Input(ioa.Send(1, 0, "x"))
	tcFull.Input(ioa.Send(1, 0, "y"))
	tc.Input(ioa.Send(0, 1, "z"))
	tcFull.Input(ioa.Send(1, 0, "w"))
	tcFull.Fire(ioa.Receive(0, 1, "x"))
	tcDup := NetTrackedChannels(2, NewSendClock(), NewNet(NetSpec{Dup: 1000, Seed: 7}))[0]
	tcDup.Input(ioa.Send(0, 1, "m1"))
	tcDup.Input(ioa.Send(0, 1, "m2"))

	for _, c := range []struct {
		a    ioa.Automaton
		want string
	}{
		{NewChannel(0, 1), "C0>1[]"},
		{chFull, "C2>0[a\x1fb|c\x1fd]"},
		{chLossy, "C0>1[m1\x1fm2]@2"},
		{NewCrash(CrashOf(0, 2)), "CR0/0,2"},
		{crFired, "CR1/1"},
		{NewCrash(NoFaults()), "CR0/"},
		{NewConsensusEnv(0), "E0|false|truetrue"},
		{NewConsensusEnvFixed(1, 1), "E1|false|falsetrue"},
		{envStopped, "E2|true|truetrue"},
		{NewProc("echo", 0, 2, &echoMachine{n: 2, self: 0}, []string{"FD-Ω"}, []string{"propose"}), "P0|f=false|send(hello,1)_0;|echo:0:"},
		{procBusy, "P1|f=false|send(hello,0)_1;send(ack,0)_1;|echo:1:hello"},
		{procFailed, "P1|f=true|send(hello,0)_1;|echo:1:"},
		{NewTrackedChannel(0, 1, clock), "TC0>1[]#[]"},
		{tc, "TC0>1[z]#[3]"},
		{tcFull, "TC1>0[y\x1fw]#[2 4]"},
		{tcDup, "TC0>1[m1\x1fm1\x1fm2\x1fm2]@2#[1 1 2 2]"},
	} {
		if got := string(c.a.AppendEncode(nil)); got != c.want {
			t.Errorf("%s: AppendEncode = %q, want %q", c.a.Name(), got, c.want)
		}
	}
}

// TestSystemAppendEncodeOnDrivenComposition drives a real system and checks
// after every event that its encoding splits on ioa.EncSep into exactly its
// automata's encodings, in order: the segments the delta explorer splices
// successor encodings into.
func TestSystemAppendEncodeOnDrivenComposition(t *testing.T) {
	autos := []ioa.Automaton{
		NewProc("echo", 0, 2, &echoMachine{n: 2, self: 0}, nil, []string{"propose"}),
	}
	autos = append(autos, Channels(2)...)
	autos = append(autos, NewConsensusEnv(0), NewConsensusEnvFixed(1, 0))
	sys := ioa.MustNewSystem(autos...)
	check := func() {
		t.Helper()
		segs := bytes.Split(sys.AppendEncode(nil), []byte{ioa.EncSep})
		if len(segs) != len(autos) {
			t.Fatalf("%d segments, want %d", len(segs), len(autos))
		}
		for i, a := range sys.Automata() {
			if want := a.AppendEncode(nil); !bytes.Equal(segs[i], want) {
				t.Fatalf("segment %d = %q, want %s's encoding %q", i, segs[i], a.Name(), want)
			}
		}
	}
	check()
	for i := 0; i < 20; i++ {
		idx, ok := sys.NextReady(-1)
		if !ok {
			break
		}
		sys.Step(sys.TaskAt(idx))
		check()
	}
}
