package system

import (
	"testing"

	"repro/internal/ioa"
)

// TestAutomatonContracts applies the shared structural contract to every
// automaton this package defines, in fresh and in advanced states, with
// inputs that reach each post-input preview: a send into a reliable, a
// lossy and a tracked channel, a crash at a live process, and a receive at
// a live and at a failed one.  The previews that report a successor
// encoding are pinned too, so the contract's byte checks are not vacuous:
// a tracked channel reports none, since the Channel previews it would
// otherwise inherit omit its 'T' and stamps.
func TestAutomatonContracts(t *testing.T) {
	ch := NewChannel(0, 1)
	ch.Input(ioa.Send(0, 1, "m"))
	lossy := NetChannels(2, NewNet(NetSpec{Drop: 100, Seed: 7}))[0]
	lossy.Input(ioa.Send(0, 1, "m"))
	tracked := NewTrackedChannel(0, 1, NewSendClock())
	tracked.Input(ioa.Send(0, 1, "m"))
	cr := NewCrash(CrashOf(0, 1))
	cr.Fire(ioa.Crash(0))
	env := NewConsensusEnv(0)
	envFixed := NewConsensusEnvFixed(1, 1)
	envFixed.Input(ioa.Crash(1))
	proc := NewProc("echo", 0, 2, &echoMachine{n: 2, self: 0}, []string{"FD-Ω"}, []string{"propose"})
	proc.Input(ioa.Receive(0, 1, "hello"))
	failed := NewProc("echo", 1, 2, &echoMachine{n: 2, self: 1}, []string{"FD-Ω"}, []string{"propose"})
	failed.Input(ioa.Crash(1))

	send, crash, recvLive, recvFailed := ioa.Send(0, 1, "x"), ioa.Crash(0), ioa.Receive(0, 1, "hello"), ioa.Receive(1, 0, "hello")
	for _, a := range []ioa.Automaton{ch, lossy, tracked, cr, env, envFixed, proc, failed, NewChannel(1, 0), NewCrash(NoFaults())} {
		if err := ioa.CheckAutomatonContract(a, send, crash, recvLive, recvFailed); err != nil {
			t.Error(err)
		}
	}

	for _, c := range []struct {
		a  ioa.Automaton
		in ioa.Action
		ok bool
	}{
		{ch, send, true}, {lossy, send, false}, {tracked, send, false},
		{proc, crash, true}, {proc, recvLive, false}, {failed, recvFailed, true},
	} {
		if _, ok := c.a.(ioa.PostInputEncoder).AppendEncodePostInput(c.in, nil); ok != c.ok {
			t.Errorf("%s previews input %v: ok=%t, want %t", c.a.Name(), c.in, ok, c.ok)
		}
	}
	for _, c := range []struct {
		a  ioa.Automaton
		ok bool
	}{{ch, true}, {lossy, true}, {tracked, false}, {proc, true}} {
		act, _ := c.a.Enabled(0)
		if _, ok := c.a.(ioa.PostFireEncoder).AppendEncodePostFire(act, nil); ok != c.ok {
			t.Errorf("%s previews firing %v: ok=%t, want %t", c.a.Name(), act, ok, c.ok)
		}
	}
}

func TestChannelQueueCopy(t *testing.T) {
	ch := NewChannel(0, 1)
	ch.Input(ioa.Send(0, 1, "a"))
	q := ch.Queue()
	q[0] = "mutated"
	if got := ch.Queue()[0]; got != "a" {
		t.Fatalf("Queue returned shared storage: %q", got)
	}
}

func TestTaskLabels(t *testing.T) {
	if NewChannel(0, 1).TaskLabel(0) == "" {
		t.Error("channel task label empty")
	}
	if NewCrash(CrashOf(2)).TaskLabel(0) == "" {
		t.Error("crash task label empty")
	}
	if NewConsensusEnv(0).TaskLabel(1) == "" {
		t.Error("env task label empty")
	}
	p := NewProc("x", 0, 1, &echoMachine{n: 1, self: 0}, nil, nil)
	if p.TaskLabel(0) == "" {
		t.Error("proc task label empty")
	}
	if p.NumTasks() != 1 {
		t.Error("proc must have exactly one task")
	}
}
