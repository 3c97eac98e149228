package system

import (
	"fmt"

	"repro/internal/ioa"
)

// Machine is the algorithm logic hosted by a process automaton.  A Machine
// reacts to inputs by queueing locally controlled actions through Effects;
// the hosting Proc serializes them through its single task, which makes the
// composed automaton deterministic in the paper's sense (§2.5: one task,
// deterministic actions, unique start state).
//
// Machines never see events after the location crashes: the Proc base
// implements the §4.2 crash semantics (crashi permanently disables all
// locally controlled actions; subsequent inputs are absorbed silently).
//
// A Machine must not retain the *Effects it is handed: the hosting Proc
// passes its own outbox, so a retained pointer would outlive the handler
// and, once the Proc is cloned, write into the wrong process's queue.
type Machine interface {
	// OnStart is called once, before any event, to queue initial actions.
	OnStart(e *Effects)
	// OnReceive handles receive(m, from) at this location.
	OnReceive(from ioa.Loc, m string, e *Effects)
	// OnFD handles a failure-detector output event delivered at this
	// location (any KindFD action the process subscribes to).
	OnFD(a ioa.Action, e *Effects)
	// OnEnvInput handles an environment input (e.g. propose).
	OnEnvInput(name, payload string, e *Effects)
	// Clone returns a deep copy of the machine state.
	Clone() Machine
	// AppendEncode appends a canonical encoding of the machine state to
	// dst and returns the extended slice (see ioa.Automaton.AppendEncode).
	AppendEncode(dst []byte) []byte
}

// Effects queues the locally controlled actions a Machine emits.  Actions
// are performed in FIFO order by the process task.  A Proc's Effects is its
// outbox itself, so emitting pushes straight onto the queue its task fires
// from and handling an input allocates nothing beyond the queue's growth.
type Effects struct {
	self  ioa.Loc
	queue ring[ioa.Action]
}

// NewEffects returns a standalone Effects accumulator for the given
// location, so Machine implementations can be unit-tested in isolation and
// wrapping machines can collect an inner machine's actions.
func NewEffects(self ioa.Loc) *Effects { return &Effects{self: self} }

// Pending returns the queued actions not yet performed, in emission order;
// for a standalone accumulator, every action emitted so far.  The slice is
// a view into the queue: callers must not retain it across an emission.
func (e *Effects) Pending() []ioa.Action { return e.queue.live() }

// Send queues send(m, to)self.
func (e *Effects) Send(to ioa.Loc, m string) {
	e.queue.push(ioa.Send(e.self, to, m))
}

// Broadcast queues send(m, j)self for every j ≠ self among 0..n-1.
func (e *Effects) Broadcast(n int, m string) {
	for j := 0; j < n; j++ {
		if ioa.Loc(j) != e.self {
			e.Send(ioa.Loc(j), m)
		}
	}
}

// Output queues an environment output (e.g. decide).
func (e *Effects) Output(name, payload string) {
	e.queue.push(ioa.EnvOutput(name, e.self, payload))
}

// OutputFD queues a failure-detector output event at this location; used by
// distributed algorithms that *solve* an AFD (Sections 5.4–7).
func (e *Effects) OutputFD(family, payload string) {
	e.queue.push(ioa.FDOutput(family, e.self, payload))
}

// Emit queues an arbitrary locally controlled action.
func (e *Effects) Emit(a ioa.Action) { e.queue.push(a) }

// Proc is the process automaton proc(i) of Section 4.2: it hosts a Machine,
// absorbs crashi by permanently disabling its locally controlled actions,
// accepts receive events addressed to it, the failure-detector families it
// subscribes to, and the environment inputs it declares.
type Proc struct {
	id      ioa.Loc
	n       int
	label   string
	fdNames map[string]bool // subscribed KindFD families
	envIn   map[string]bool // accepted KindEnvIn names
	failed  bool
	started bool
	outbox  Effects // the machine's emissions, fired head first by the task
	m       Machine
}

var _ ioa.Automaton = (*Proc)(nil)
var _ ioa.Signatured = (*Proc)(nil)

// NewProc hosts machine m at location id in a system of n locations.
// fdNames lists the failure-detector action families delivered to the
// machine; envInputs lists accepted environment input names.
func NewProc(label string, id ioa.Loc, n int, m Machine, fdNames, envInputs []string) *Proc {
	p := &Proc{
		id:      id,
		n:       n,
		label:   label,
		fdNames: make(map[string]bool, len(fdNames)),
		envIn:   make(map[string]bool, len(envInputs)),
		outbox:  Effects{self: id},
		m:       m,
	}
	for _, f := range fdNames {
		p.fdNames[f] = true
	}
	for _, e := range envInputs {
		p.envIn[e] = true
	}
	// OnStart runs against the unique start state, before any input.
	m.OnStart(&p.outbox)
	p.started = true
	return p
}

// ID returns the hosted location.
func (p *Proc) ID() ioa.Loc { return p.id }

// Failed reports whether crashi has occurred.
func (p *Proc) Failed() bool { return p.failed }

// Quiescent implements ioa.QuiescentReporter: a failed process never fires
// again and absorbs every input without a state change.
func (p *Proc) Quiescent() bool { return p.failed }

// CanSend implements ioa.SendProspector (fresh sends only — the queued
// outbox is what PendingProspects enumerates): a failed process never runs
// its machine again; a live one defers to the hosted machine when it
// declares its own send prospects, and otherwise may send in response to
// any input.
func (p *Proc) CanSend() bool {
	if p.failed {
		return false
	}
	if sp, ok := p.m.(ioa.SendProspector); ok {
		return sp.CanSend()
	}
	return true
}

// PendingProspects implements ioa.PendingProspect: without further inputs
// the machine runs no more handlers, so the queued outbox is exactly what
// the process can still fire.
func (p *Proc) PendingProspects(yield func(ioa.Action) bool) {
	if p.failed {
		return
	}
	for _, a := range p.outbox.queue.live() {
		if !yield(a) {
			return
		}
	}
}

// MachineState exposes the hosted machine for assertions in tests.
func (p *Proc) MachineState() Machine { return p.m }

// Name implements ioa.Automaton.
func (p *Proc) Name() string { return fmt.Sprintf("%s[%v]", p.label, p.id) }

// Accepts implements ioa.Automaton.  Crash and receive actions must carry
// their canonical names and an in-range peer (every constructor guarantees
// this), so that the signature below covers Accepts exactly.
func (p *Proc) Accepts(a ioa.Action) bool {
	switch a.Kind {
	case ioa.KindCrash:
		return a.Loc == p.id && a.Name == ioa.NameCrash
	case ioa.KindReceive:
		return a.Loc == p.id && a.Name == ioa.NameReceive &&
			a.Peer >= 0 && int(a.Peer) < p.n
	case ioa.KindFD:
		return a.Loc == p.id && p.fdNames[a.Name]
	case ioa.KindEnvIn:
		return a.Loc == p.id && p.envIn[a.Name]
	default:
		return false
	}
}

// SignatureKeys implements ioa.Signatured: crashi, receive(·, j)i for every
// location j, the subscribed failure-detector families at i, and the
// declared environment inputs at i.
func (p *Proc) SignatureKeys() []ioa.SigKey {
	keys := ioa.KeysOf(ioa.Crash(p.id))
	for j := 0; j < p.n; j++ {
		keys = append(keys, ioa.KeyOf(ioa.Receive(p.id, ioa.Loc(j), "")))
	}
	for f := range p.fdNames {
		keys = append(keys, ioa.KeyOf(ioa.FDOutput(f, p.id, "")))
	}
	for e := range p.envIn {
		keys = append(keys, ioa.KeyOf(ioa.EnvInput(e, p.id, "")))
	}
	return keys
}

// Input implements ioa.Automaton.  Per §4.2, inputs arriving after crashi
// have no visible effect (all locally controlled actions stay disabled), so
// they are absorbed without consulting the machine.
func (p *Proc) Input(a ioa.Action) {
	if a.Kind == ioa.KindCrash {
		p.failed = true
		return
	}
	if p.failed {
		return
	}
	switch a.Kind {
	case ioa.KindReceive:
		p.m.OnReceive(a.Peer, a.Payload, &p.outbox)
	case ioa.KindFD:
		p.m.OnFD(a, &p.outbox)
	case ioa.KindEnvIn:
		p.m.OnEnvInput(a.Name, a.Payload, &p.outbox)
	}
}

// NumTasks implements ioa.Automaton: a process automaton is deterministic,
// hence has exactly one task (§2.5, §4.2).
func (p *Proc) NumTasks() int { return 1 }

// TaskLabel implements ioa.Automaton.
func (p *Proc) TaskLabel(int) string { return "step" }

// Enabled implements ioa.Automaton: the head of the outbox, unless crashed.
func (p *Proc) Enabled(int) (ioa.Action, bool) {
	if p.failed || p.outbox.queue.len() == 0 {
		return ioa.Action{}, false
	}
	return p.outbox.queue.at(0), true
}

// Fire implements ioa.Automaton.
func (p *Proc) Fire(ioa.Action) { p.outbox.queue.pop() }

// PendingOutputs returns the number of queued locally controlled actions.
func (p *Proc) PendingOutputs() int { return p.outbox.queue.len() }

// Clone implements ioa.Automaton.
func (p *Proc) Clone() ioa.Automaton {
	c := &Proc{
		id:      p.id,
		n:       p.n,
		label:   p.label,
		fdNames: p.fdNames, // immutable after construction
		envIn:   p.envIn,   // immutable after construction
		failed:  p.failed,
		started: p.started,
		m:       p.m.Clone(),
	}
	c.outbox = Effects{self: p.id, queue: cloneRing(p.outbox.queue)}
	return c
}

// NopMachine is a Machine with no behavior; useful as a base to embed when a
// machine only reacts to a subset of events.
type NopMachine struct{}

// OnStart implements Machine.
func (NopMachine) OnStart(*Effects) {}

// OnReceive implements Machine.
func (NopMachine) OnReceive(ioa.Loc, string, *Effects) {}

// OnFD implements Machine.
func (NopMachine) OnFD(ioa.Action, *Effects) {}

// OnEnvInput implements Machine.
func (NopMachine) OnEnvInput(string, string, *Effects) {}
