package ioa

import (
	"fmt"
	"strings"
	"testing"
)

// counter is a toy automaton: task 0 emits "tick" internal actions up to a
// bound; it accepts "poke" env inputs which raise the bound.
type counter struct {
	name  string
	fired int
	bound int
	poked int
}

func (c *counter) Name() string { return c.name }
func (c *counter) Accepts(a Action) bool {
	return a.Kind == KindEnvIn && a.Name == "poke"
}
func (c *counter) Input(Action)         { c.poked++; c.bound++ }
func (c *counter) NumTasks() int        { return 1 }
func (c *counter) TaskLabel(int) string { return "tick" }
func (c *counter) Enabled(int) (Action, bool) {
	if c.fired >= c.bound {
		return Action{}, false
	}
	return Internal("tick", 0, fmt.Sprintf("%d", c.fired)), true
}
func (c *counter) Fire(Action) { c.fired++ }
func (c *counter) Clone() Automaton {
	cc := *c
	return &cc
}
func (c *counter) Encode() string {
	return fmt.Sprintf("%s:%d/%d/%d", c.name, c.fired, c.bound, c.poked)
}

// poker emits one "poke" env input.
type poker struct{ done bool }

func (p *poker) Name() string         { return "poker" }
func (p *poker) Accepts(Action) bool  { return false }
func (p *poker) Input(Action)         {}
func (p *poker) NumTasks() int        { return 1 }
func (p *poker) TaskLabel(int) string { return "poke" }
func (p *poker) Enabled(int) (Action, bool) {
	if p.done {
		return Action{}, false
	}
	return EnvInput("poke", 0, ""), true
}
func (p *poker) Fire(Action) { p.done = true }
func (p *poker) Clone() Automaton {
	pp := *p
	return &pp
}
func (p *poker) Encode() string { return fmt.Sprintf("poker:%t", p.done) }

func TestNewSystemDuplicateNames(t *testing.T) {
	if _, err := NewSystem(&counter{name: "a"}, &counter{name: "a"}); err == nil {
		t.Fatal("composition with duplicate names must fail")
	}
	if _, err := NewSystem(&counter{name: "a"}, &counter{name: "b"}); err != nil {
		t.Fatalf("distinct names should compose: %v", err)
	}
}

func TestMustNewSystemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewSystem must panic on duplicate names")
		}
	}()
	MustNewSystem(&counter{name: "a"}, &counter{name: "a"})
}

func TestSystemStepAndDelivery(t *testing.T) {
	c := &counter{name: "c"}
	p := &poker{}
	sys := MustNewSystem(c, p)

	if len(sys.Tasks()) != 2 {
		t.Fatalf("expected 2 tasks, got %d", len(sys.Tasks()))
	}

	// counter is not enabled yet (bound 0).
	if _, ok := sys.Step(TaskRef{Auto: 0, Task: 0}); ok {
		t.Fatal("counter should be disabled before poke")
	}
	// poke fires, delivered to counter, raising its bound.
	act, ok := sys.Step(TaskRef{Auto: 1, Task: 0})
	if !ok || act.Name != "poke" {
		t.Fatalf("poke step = %v, %t", act, ok)
	}
	if c.bound != 1 || c.poked != 1 {
		t.Fatalf("poke not delivered: bound=%d poked=%d", c.bound, c.poked)
	}
	// Now the counter ticks once and becomes quiescent.
	if _, ok := sys.Step(TaskRef{Auto: 0, Task: 0}); !ok {
		t.Fatal("counter should tick after poke")
	}
	if !sys.Quiescent() {
		t.Fatal("system should be quiescent")
	}
	// Internal actions do not appear in the trace; the poke does.
	tr := sys.Trace()
	if len(tr) != 1 || tr[0].Name != "poke" {
		t.Fatalf("trace = %v, want just the poke event", tr)
	}
	if sys.Steps() != 2 {
		t.Fatalf("steps = %d, want 2 (poke + internal tick)", sys.Steps())
	}
}

func TestSystemAutomatonLookup(t *testing.T) {
	c := &counter{name: "c"}
	sys := MustNewSystem(c, &poker{})
	if sys.Automaton("c") != c {
		t.Error("lookup by name failed")
	}
	if sys.Automaton("zzz") != nil {
		t.Error("lookup of unknown name should be nil")
	}
}

func TestSystemCloneIndependence(t *testing.T) {
	c := &counter{name: "c"}
	p := &poker{}
	sys := MustNewSystem(c, p)
	sys.Step(TaskRef{Auto: 1, Task: 0})

	clone := sys.Clone()
	if clone.Encode() != sys.Encode() {
		t.Fatal("clone must start in the same state")
	}
	// Advance the original; the clone must not move.
	sys.Step(TaskRef{Auto: 0, Task: 0})
	if clone.Encode() == sys.Encode() {
		t.Fatal("advancing the original changed the clone")
	}
	// The clone can take the same step and reconverge.
	clone.Step(TaskRef{Auto: 0, Task: 0})
	if clone.Encode() != sys.Encode() {
		t.Fatal("same steps from same state must reconverge")
	}
}

func TestSystemCloneBareDropsTrace(t *testing.T) {
	sys := MustNewSystem(&counter{name: "c"}, &poker{})
	sys.Step(TaskRef{Auto: 1, Task: 0})
	bare := sys.CloneBare()
	if len(bare.Trace()) != 0 {
		t.Error("CloneBare must not copy the trace")
	}
	if bare.Encode() != sys.Encode() {
		t.Error("CloneBare must preserve state")
	}
}

func TestSystemApplyExternalSource(t *testing.T) {
	// Apply with owner -1 models events fed from outside the composition
	// (the execution tree's FD edges).
	c := &counter{name: "c"}
	sys := MustNewSystem(c)
	sys.Apply(-1, EnvInput("poke", 0, ""))
	if c.poked != 1 {
		t.Fatal("externally sourced event not delivered")
	}
	if len(sys.Trace()) != 1 {
		t.Fatal("externally sourced event not traced")
	}
}

func TestTaskLabelFormat(t *testing.T) {
	sys := MustNewSystem(&counter{name: "c"})
	if got := sys.TaskLabel(TaskRef{0, 0}); got != "c/tick" {
		t.Errorf("TaskLabel = %q", got)
	}
	if got := (TaskRef{1, 2}).String(); !strings.Contains(got, "1.2") {
		t.Errorf("TaskRef.String() = %q", got)
	}
}

func TestEncodeSeparatesAutomata(t *testing.T) {
	a := MustNewSystem(&counter{name: "a", bound: 1}, &counter{name: "b"})
	b := MustNewSystem(&counter{name: "a"}, &counter{name: "b", bound: 1})
	if a.Encode() == b.Encode() {
		t.Error("different composite states must encode differently")
	}
}

func TestHideReclassifiesActions(t *testing.T) {
	c := &counter{name: "c"}
	p := &poker{}
	sys := MustNewSystem(c, p)
	sys.Hide(func(a Action) bool { return a.Name == "poke" })

	// The hidden action still synchronizes: the counter gets poked.
	sys.Step(TaskRef{Auto: 1, Task: 0})
	if c.poked != 1 {
		t.Fatal("hidden action no longer synchronizes")
	}
	// But it no longer appears in the trace.
	if len(sys.Trace()) != 0 {
		t.Fatalf("hidden action traced: %v", sys.Trace())
	}
	// Clones inherit the hiding.
	clone := sys.Clone()
	clone.Apply(-1, EnvInput("poke", 0, ""))
	if len(clone.Trace()) != 0 {
		t.Fatal("clone lost the hiding predicate")
	}
}

func TestHideComposes(t *testing.T) {
	sys := MustNewSystem(&counter{name: "c"})
	sys.Hide(func(a Action) bool { return a.Name == "x" })
	sys.Hide(func(a Action) bool { return a.Name == "y" })
	sys.Apply(-1, EnvInput("x", 0, ""))
	sys.Apply(-1, EnvInput("y", 0, ""))
	sys.Apply(-1, EnvInput("z", 0, ""))
	if len(sys.Trace()) != 1 || sys.Trace()[0].Name != "z" {
		t.Fatalf("composed hiding wrong: %v", sys.Trace())
	}
}

// TestObserversFanOut: every observer sees every event, in Apply order and
// in the order the observers were added; clones inherit none of them.
func TestObserversFanOut(t *testing.T) {
	sys := MustNewSystem(&counter{name: "c"}, &poker{})
	var seen []string
	for _, name := range []string{"a", "b"} {
		sys.AddObserver(func(owner int, act Action) {
			seen = append(seen, fmt.Sprintf("%s:%d:%s", name, owner, act.Name))
		})
	}
	clone := sys.Clone()
	sys.Step(TaskRef{Auto: 1, Task: 0}) // poke raises the counter's bound
	sys.Step(TaskRef{Auto: 0, Task: 0}) // one internal tick
	sys.Apply(-1, EnvInput("poke", 0, ""))
	clone.Apply(-1, EnvInput("poke", 0, ""))
	clone.Step(TaskRef{Auto: 0, Task: 0})
	want := "a:1:poke b:1:poke a:0:tick b:0:tick a:-1:poke b:-1:poke"
	if got := strings.Join(seen, " "); got != want {
		t.Fatalf("observers saw %q, want %q", got, want)
	}
}
