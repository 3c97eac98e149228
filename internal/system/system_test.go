package system

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ioa"
)

func TestChannelFIFO(t *testing.T) {
	c := NewChannel(0, 1)
	if _, ok := c.Enabled(0); ok {
		t.Fatal("empty channel must not deliver")
	}
	c.Input(ioa.Send(0, 1, "a"))
	c.Input(ioa.Send(0, 1, "b"))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	act, ok := c.Enabled(0)
	if !ok || act != ioa.Receive(1, 0, "a") {
		t.Fatalf("Enabled = %v, want receive(a,0)_1", act)
	}
	c.Fire(act)
	act, _ = c.Enabled(0)
	if act.Payload != "b" {
		t.Fatalf("FIFO order violated: got %v", act)
	}
}

func TestChannelAccepts(t *testing.T) {
	c := NewChannel(0, 1)
	if !c.Accepts(ioa.Send(0, 1, "m")) {
		t.Error("must accept sends from 0 to 1")
	}
	if c.Accepts(ioa.Send(1, 0, "m")) {
		t.Error("must not accept reverse sends")
	}
	if c.Accepts(ioa.Send(0, 2, "m")) {
		t.Error("must not accept sends to another destination")
	}
	if c.Accepts(ioa.Receive(1, 0, "m")) {
		t.Error("must not accept receives")
	}
}

func TestChannelCloneIndependent(t *testing.T) {
	c := NewChannel(0, 1)
	c.Input(ioa.Send(0, 1, "a"))
	cc := c.Clone().(*Channel)
	c.Input(ioa.Send(0, 1, "b"))
	if cc.Len() != 1 {
		t.Error("clone shares queue with original")
	}
	if string(c.AppendEncode(nil)) == string(cc.AppendEncode(nil)) {
		t.Error("different queues must encode differently")
	}
}

func TestChannelsMesh(t *testing.T) {
	chs := Channels(3)
	if len(chs) != 6 {
		t.Fatalf("full mesh for n=3 has %d channels, want 6", len(chs))
	}
	names := make(map[string]bool)
	for _, c := range chs {
		names[c.Name()] = true
	}
	if len(names) != 6 {
		t.Fatal("channel names must be unique")
	}
}

func TestCrashAutomatonSequencing(t *testing.T) {
	c := NewCrash(CrashOf(1, 0))
	if c.NumTasks() != 2 {
		t.Fatalf("NumTasks = %d", c.NumTasks())
	}
	// Task 1 (second crash) must not be enabled before task 0 fires.
	if _, ok := c.Enabled(1); ok {
		t.Fatal("second crash enabled before first")
	}
	act, ok := c.Enabled(0)
	if !ok || act != ioa.Crash(1) {
		t.Fatalf("first crash = %v", act)
	}
	c.Fire(act)
	if c.Remaining() != 1 {
		t.Fatalf("Remaining = %d", c.Remaining())
	}
	act, ok = c.Enabled(1)
	if !ok || act != ioa.Crash(0) {
		t.Fatalf("second crash = %v", act)
	}
	c.Fire(act)
	if _, ok := c.Enabled(0); ok {
		t.Fatal("fired crash re-enabled")
	}
}

func TestCrashAutomatonNoFaults(t *testing.T) {
	c := NewCrash(NoFaults())
	if c.NumTasks() != 0 {
		t.Fatal("no-fault plan must have no tasks")
	}
}

func TestFaultPlanMaxFaulty(t *testing.T) {
	if got := CrashOf(0, 1, 0).MaxFaulty(); got != 2 {
		t.Errorf("MaxFaulty = %d, want 2 (duplicates collapse)", got)
	}
	if got := NoFaults().MaxFaulty(); got != 0 {
		t.Errorf("MaxFaulty = %d, want 0", got)
	}
}

// echoMachine queues one message to its successor on start and echoes
// everything it receives back to the sender, then decides on first FD input.
type echoMachine struct {
	NopMachine
	n        int
	self     ioa.Loc
	received []string
}

func (m *echoMachine) OnStart(e *Effects) {
	e.Send(ioa.Loc((int(m.self)+1)%m.n), "hello")
}

func (m *echoMachine) OnReceive(from ioa.Loc, msg string, e *Effects) {
	m.received = append(m.received, msg)
	if msg == "hello" {
		e.Send(from, "ack")
	}
}

func (m *echoMachine) OnFD(a ioa.Action, e *Effects) {
	e.Output("decide", a.Payload)
}

func (m *echoMachine) Clone() Machine {
	c := &echoMachine{n: m.n, self: m.self}
	c.received = append([]string(nil), m.received...)
	return c
}

func (m *echoMachine) AppendEncode(dst []byte) []byte {
	return fmt.Appendf(dst, "echo:%v:%s", m.self, strings.Join(m.received, ","))
}

func TestProcStartAndSend(t *testing.T) {
	p := NewProc("echo", 0, 2, &echoMachine{n: 2, self: 0}, []string{"FD-Ω"}, nil)
	act, ok := p.Enabled(0)
	if !ok || act != ioa.Send(0, 1, "hello") {
		t.Fatalf("initial action = %v, want send(hello,1)_0", act)
	}
	p.Fire(act)
	if _, ok := p.Enabled(0); ok {
		t.Fatal("outbox should be empty after firing the start message")
	}
}

func TestProcReceiveEchoAndFD(t *testing.T) {
	m := &echoMachine{n: 2, self: 1}
	p := NewProc("echo", 1, 2, m, []string{"FD-Ω"}, nil)
	p.Fire(mustEnabled(t, p)) // drain start message

	p.Input(ioa.Receive(1, 0, "hello"))
	act := mustEnabled(t, p)
	if act != ioa.Send(1, 0, "ack") {
		t.Fatalf("echo action = %v", act)
	}
	p.Fire(act)

	p.Input(ioa.FDOutput("FD-Ω", 1, "0"))
	act = mustEnabled(t, p)
	if act != ioa.EnvOutput("decide", 1, "0") {
		t.Fatalf("decide action = %v", act)
	}
}

func TestProcCrashDisablesOutputsAndInputs(t *testing.T) {
	m := &echoMachine{n: 2, self: 0}
	p := NewProc("echo", 0, 2, m, []string{"FD-Ω"}, nil)
	if !p.Accepts(ioa.Crash(0)) {
		t.Fatal("process must accept its own crash")
	}
	if p.Accepts(ioa.Crash(1)) {
		t.Fatal("process must not accept another location's crash")
	}
	p.Input(ioa.Crash(0))
	if !p.Failed() {
		t.Fatal("crash not registered")
	}
	if _, ok := p.Enabled(0); ok {
		t.Fatal("crash must permanently disable locally controlled actions")
	}
	// Inputs after crash are absorbed without reaching the machine.
	p.Input(ioa.Receive(0, 1, "hello"))
	if len(m.received) != 0 {
		t.Fatal("machine saw input after crash")
	}
}

func TestProcAcceptsFiltering(t *testing.T) {
	p := NewProc("echo", 0, 2, &echoMachine{n: 2, self: 0}, []string{"FD-Ω"}, []string{"propose"})
	if !p.Accepts(ioa.Receive(0, 1, "m")) {
		t.Error("must accept receives addressed to it")
	}
	if p.Accepts(ioa.Receive(1, 0, "m")) {
		t.Error("must not accept receives at other locations")
	}
	if !p.Accepts(ioa.FDOutput("FD-Ω", 0, "1")) {
		t.Error("must accept subscribed FD family")
	}
	if p.Accepts(ioa.FDOutput("FD-P", 0, "{}")) {
		t.Error("must not accept unsubscribed FD family")
	}
	if !p.Accepts(ioa.EnvInput("propose", 0, "1")) {
		t.Error("must accept declared env input")
	}
	if p.Accepts(ioa.EnvInput("other", 0, "1")) {
		t.Error("must not accept undeclared env input")
	}
}

func TestProcCloneDeep(t *testing.T) {
	m := &echoMachine{n: 2, self: 0}
	p := NewProc("echo", 0, 2, m, nil, nil)
	c := p.Clone().(*Proc)
	p.Input(ioa.Receive(0, 1, "hello"))
	if string(c.AppendEncode(nil)) == string(p.AppendEncode(nil)) {
		t.Fatal("clone shares state with original")
	}
	if c.PendingOutputs() != 1 { // only the start message
		t.Fatalf("clone outbox = %d, want 1", c.PendingOutputs())
	}
	// The outbox is the Effects the machine emits into: the clone's
	// emissions must land in the clone's queue alone.
	c.Input(ioa.Receive(0, 1, "hello"))
	if p.PendingOutputs() != 2 || c.PendingOutputs() != 2 {
		t.Fatalf("after input at the clone: original outbox %d, clone %d, want 2 and 2",
			p.PendingOutputs(), c.PendingOutputs())
	}
}

func TestConsensusEnvWellFormed(t *testing.T) {
	e := NewConsensusEnv(0)
	// Both propose tasks enabled initially.
	a0, ok0 := e.Enabled(0)
	a1, ok1 := e.Enabled(1)
	if !ok0 || !ok1 {
		t.Fatal("both propose values should be enabled initially")
	}
	if a0.Payload != "0" || a1.Payload != "1" {
		t.Fatalf("payloads = %q, %q", a0.Payload, a1.Payload)
	}
	// Firing one disables both (Proposition 43).
	e.Fire(a0)
	if _, ok := e.Enabled(0); ok {
		t.Error("propose(0) still enabled after propose")
	}
	if _, ok := e.Enabled(1); ok {
		t.Error("propose(1) still enabled after propose")
	}
}

func TestConsensusEnvCrashDisables(t *testing.T) {
	e := NewConsensusEnv(1)
	e.Input(ioa.Crash(1))
	if _, ok := e.Enabled(0); ok {
		t.Error("crash must disable propose")
	}
}

func TestConsensusEnvFixed(t *testing.T) {
	e := NewConsensusEnvFixed(0, 1)
	if _, ok := e.Enabled(0); ok {
		t.Error("fixed env must not enable the other value")
	}
	a, ok := e.Enabled(1)
	if !ok || a.Payload != "1" {
		t.Errorf("fixed env propose = %v, %t", a, ok)
	}
}

func TestConsensusEnvAcceptsDecide(t *testing.T) {
	e := NewConsensusEnv(0)
	if !e.Accepts(ioa.EnvOutput("decide", 0, "1")) {
		t.Error("env must accept its location's decide")
	}
	if e.Accepts(ioa.EnvOutput("decide", 1, "1")) {
		t.Error("env must not accept another location's decide")
	}
	// decide has no effect on stop.
	e.Input(ioa.EnvOutput("decide", 0, "1"))
	if _, ok := e.Enabled(0); !ok {
		t.Error("decide input must not disable propose")
	}
}

func TestConsensusEnvsConstruction(t *testing.T) {
	if got := len(ConsensusEnvs(4)); got != 4 {
		t.Errorf("ConsensusEnvs(4) = %d automata", got)
	}
	envs := ConsensusEnvsFixed([]int{0, 1, 0})
	if len(envs) != 3 {
		t.Fatalf("ConsensusEnvsFixed = %d automata", len(envs))
	}
	a, ok := envs[1].Enabled(1)
	if !ok || a.Payload != "1" {
		t.Errorf("fixed env 1 should propose 1, got %v %t", a, ok)
	}
}

func mustEnabled(t *testing.T, a ioa.Automaton) ioa.Action {
	t.Helper()
	act, ok := a.Enabled(0)
	if !ok {
		t.Fatal("expected an enabled action")
	}
	return act
}
