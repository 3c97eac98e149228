package oracle_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/system"
)

// ---- positive controls: mutant automata the oracle must convict ----

// leader fires an internal tick; its fire count is spied on by follower.
type leader struct{ fired int }

func (l *leader) Name() string            { return "leader" }
func (l *leader) Accepts(ioa.Action) bool { return false }
func (l *leader) Input(ioa.Action)        {}
func (l *leader) NumTasks() int           { return 1 }
func (l *leader) TaskLabel(int) string    { return "tick" }
func (l *leader) Enabled(int) (ioa.Action, bool) {
	return ioa.Internal("tick", 0, ""), true
}
func (l *leader) Fire(ioa.Action)      { l.fired++ }
func (l *leader) Clone() ioa.Automaton { c := *l; return &c }
func (l *leader) Encode() string       { return fmt.Sprintf("L%d", l.fired) }

// follower violates the Automaton contract: its Enabled reads the *leader's*
// state, so the incremental ready-set (which only re-polls automata touched
// by an event) goes stale the moment the leader fires.  The exact bug class
// the enabled-set oracle exists to catch.
type follower struct{ l *leader }

func (f *follower) Name() string            { return "follower" }
func (f *follower) Accepts(ioa.Action) bool { return false }
func (f *follower) Input(ioa.Action)        {}
func (f *follower) NumTasks() int           { return 1 }
func (f *follower) TaskLabel(int) string    { return "obs" }
func (f *follower) Enabled(int) (ioa.Action, bool) {
	if f.l.fired%2 == 1 {
		return ioa.Internal("obs", 1, ""), true
	}
	return ioa.Action{}, false
}
func (f *follower) Fire(ioa.Action)      {}
func (f *follower) Clone() ioa.Automaton { c := *f; return &c }
func (f *follower) Encode() string       { return "F" }

func TestOracleCatchesStaleReadySet(t *testing.T) {
	l := &leader{}
	sys := ioa.MustNewSystem(l, &follower{l: l})
	o := oracle.Attach(sys, oracle.Options{Stride: 1})
	sys.Apply(0, ioa.Internal("tick", 0, ""))
	if err := o.Err(); err == nil {
		t.Fatal("oracle missed the stale ready-set bit")
	} else if !strings.Contains(err.Error(), "(oracle-ready-set)") {
		t.Fatalf("wrong clause: %v", err)
	}
}

// poker fires an environment input other automata may accept.
type poker struct{ n int }

func (p *poker) Name() string            { return "poker" }
func (p *poker) Accepts(ioa.Action) bool { return false }
func (p *poker) Input(ioa.Action)        {}
func (p *poker) NumTasks() int           { return 1 }
func (p *poker) TaskLabel(int) string    { return "poke" }
func (p *poker) Enabled(int) (ioa.Action, bool) {
	return ioa.EnvInput("poke", 0, ""), true
}
func (p *poker) Fire(ioa.Action)      { p.n++ }
func (p *poker) Clone() ioa.Automaton { c := *p; return &c }
func (p *poker) Encode() string       { return fmt.Sprintf("P%d", p.n) }

// misdeclared violates the Signatured contract: it accepts "poke" but
// declares only a key for "other", so the routing index never offers it the
// pokes a full Accepts scan would deliver.
type misdeclared struct{ got int }

func (m *misdeclared) Name() string { return "misdeclared" }
func (m *misdeclared) Accepts(a ioa.Action) bool {
	return a.Kind == ioa.KindEnvIn && a.Name == "poke"
}
func (m *misdeclared) SignatureKeys() []ioa.SigKey {
	return ioa.KeysOf(ioa.EnvInput("other", 0, ""))
}
func (m *misdeclared) Input(ioa.Action)     { m.got++ }
func (m *misdeclared) NumTasks() int        { return 0 }
func (m *misdeclared) TaskLabel(int) string { return "" }
func (m *misdeclared) Enabled(int) (ioa.Action, bool) {
	return ioa.Action{}, false
}
func (m *misdeclared) Fire(ioa.Action)      {}
func (m *misdeclared) Clone() ioa.Automaton { c := *m; return &c }
func (m *misdeclared) Encode() string       { return fmt.Sprintf("M%d", m.got) }

func TestOracleCatchesUndeclaredAcceptor(t *testing.T) {
	sys := ioa.MustNewSystem(&poker{}, &misdeclared{})
	o := oracle.Attach(sys, oracle.Options{Stride: 1})
	sys.Apply(0, ioa.EnvInput("poke", 0, ""))
	if err := o.Err(); err == nil {
		t.Fatal("oracle missed the undeclared acceptor")
	} else if !strings.Contains(err.Error(), "(oracle-delivery-set)") {
		t.Fatalf("wrong clause: %v", err)
	}
}

func TestOracleCatchesChannelDesync(t *testing.T) {
	ch := system.NewChannel(0, 1)
	sys := ioa.MustNewSystem(&sender{to: 1, k: 3}, ch)
	o := oracle.Attach(sys, oracle.Options{Stride: 1, Shadow: true})
	// Two sends through the system keep shadow and channel in sync.
	sys.Step(ioa.TaskRef{Auto: 0, Task: 0})
	sys.Step(ioa.TaskRef{Auto: 0, Task: 0})
	if err := o.Err(); err != nil {
		t.Fatalf("shadow diverged on honest traffic: %v", err)
	}
	// Simulate a queue bug: the channel drops its head behind the system's
	// back (as a retention/compaction bug would).
	ch.Fire(ioa.Action{})
	// The next delivery observed through the system must convict it.
	sys.Step(ioa.TaskRef{Auto: 1, Task: 0})
	if err := o.Err(); err == nil {
		t.Fatal("oracle missed the desynchronized channel")
	} else if !strings.Contains(err.Error(), "(oracle-channel-shadow)") {
		t.Fatalf("wrong clause: %v", err)
	}
}

// sender emits k distinct messages to location `to`.
type sender struct {
	to   ioa.Loc
	k    int
	sent int
}

func (s *sender) Name() string            { return "sender" }
func (s *sender) Accepts(ioa.Action) bool { return false }
func (s *sender) Input(ioa.Action)        {}
func (s *sender) NumTasks() int           { return 1 }
func (s *sender) TaskLabel(int) string    { return "send" }
func (s *sender) Enabled(int) (ioa.Action, bool) {
	if s.sent >= s.k {
		return ioa.Action{}, false
	}
	return ioa.Send(0, s.to, fmt.Sprintf("m%d", s.sent)), true
}
func (s *sender) Fire(ioa.Action)      { s.sent++ }
func (s *sender) Clone() ioa.Automaton { c := *s; return &c }
func (s *sender) Encode() string       { return fmt.Sprintf("S%d", s.sent) }

// ---- negative controls: real systems must pass with zero divergences ----

func TestOracleCleanOnDetectorSystem(t *testing.T) {
	det, err := afd.Lookup("FD-◇P", 3)
	if err != nil {
		t.Fatal(err)
	}
	sys := ioa.MustNewSystem(
		append([]ioa.Automaton{det.Automaton(3), system.NewCrash(system.CrashOf(1))},
			system.Channels(3)...)...)
	o := oracle.Attach(sys, oracle.Options{Stride: 1, Shadow: true})
	res := sched.Random(sys, 42, sched.Options{MaxSteps: 600})
	if err := o.Check(); err != nil {
		t.Fatalf("divergence on honest detector system (after %d steps, %d sweeps): %v",
			res.Steps, o.Sweeps(), err)
	}
	if o.Events() == 0 {
		t.Fatal("oracle observed nothing")
	}
}

func TestOracleCleanOnTrackedMesh(t *testing.T) {
	clock := system.NewSendClock()
	det, err := afd.Lookup("FD-P", 3)
	if err != nil {
		t.Fatal(err)
	}
	sys := ioa.MustNewSystem(
		append([]ioa.Automaton{det.Automaton(3), system.NewCrash(system.NoFaults())},
			system.TrackedChannels(3, clock)...)...)
	o := oracle.Attach(sys, oracle.Options{Stride: 1, Shadow: true})
	sched.RoundRobin(sys, sched.Options{MaxSteps: 500})
	if err := o.Check(); err != nil {
		t.Fatalf("divergence on tracked mesh: %v", err)
	}
}

func TestOracleStrideAmortizes(t *testing.T) {
	det, err := afd.Lookup("FD-Ω", 2)
	if err != nil {
		t.Fatal(err)
	}
	sys := ioa.MustNewSystem(det.Automaton(2), system.NewCrash(system.NoFaults()))
	o := oracle.Attach(sys, oracle.Options{Stride: 8})
	sched.RoundRobin(sys, sched.Options{MaxSteps: 64})
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	// 64 events at stride 8 = 8 strided sweeps, plus the explicit Check.
	if got := o.Sweeps(); got != 9 {
		t.Fatalf("got %d sweeps, want 9", got)
	}
}

func TestObserverNotInheritedByClones(t *testing.T) {
	sys := ioa.MustNewSystem(&poker{})
	o := oracle.Attach(sys, oracle.Options{Stride: 1})
	clone := sys.Clone()
	clone.Apply(0, ioa.EnvInput("poke", 0, ""))
	if o.Events() != 0 {
		t.Fatal("clone's events reached the parent's oracle")
	}
	sys.Apply(0, ioa.EnvInput("poke", 0, ""))
	if o.Events() != 1 {
		t.Fatalf("oracle observed %d events, want 1", o.Events())
	}
}
