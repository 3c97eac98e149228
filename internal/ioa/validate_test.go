package ioa

import (
	"strings"
	"testing"
)

func TestCheckDeterminismPasses(t *testing.T) {
	sys := MustNewSystem(&counter{name: "c"}, &poker{})
	sched := RoundRobinSchedule(sys, 3)
	if err := CheckDeterminism(sys, sched); err != nil {
		t.Fatalf("deterministic system failed the check: %v", err)
	}
}

// flaky is an automaton whose Enabled flips between queries — a
// task-determinism violation CheckDeterminism must catch.
type flaky struct {
	calls int
}

func (f *flaky) Name() string         { return "flaky" }
func (f *flaky) Accepts(Action) bool  { return false }
func (f *flaky) Input(Action)         {}
func (f *flaky) NumTasks() int        { return 1 }
func (f *flaky) TaskLabel(int) string { return "flip" }
func (f *flaky) Enabled(int) (Action, bool) {
	f.calls++
	if f.calls%2 == 1 {
		return Internal("odd", 0, ""), true
	}
	return Internal("even", 0, ""), true
}
func (f *flaky) Fire(Action) {}
func (f *flaky) Clone() Automaton {
	c := *f
	return &c
}
func (f *flaky) AppendEncode(dst []byte) []byte { return append(dst, "flaky"...) }

func TestCheckDeterminismCatchesUnstableEnabled(t *testing.T) {
	sys := MustNewSystem(&flaky{})
	err := CheckDeterminism(sys, RoundRobinSchedule(sys, 1))
	if err == nil {
		t.Fatal("unstable Enabled not detected")
	}
	if !strings.Contains(err.Error(), "unstable") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// shallow is an automaton whose Clone shares state — transitions diverge
// after the clone mutates.
type shallow struct {
	hits *int
}

func (s *shallow) Name() string         { return "shallow" }
func (s *shallow) Accepts(Action) bool  { return false }
func (s *shallow) Input(Action)         {}
func (s *shallow) NumTasks() int        { return 1 }
func (s *shallow) TaskLabel(int) string { return "hit" }
func (s *shallow) Enabled(int) (Action, bool) {
	if *s.hits >= 3 {
		return Action{}, false
	}
	return Internal("hit", 0, ""), true
}
func (s *shallow) Fire(Action) { *s.hits++ }
func (s *shallow) Clone() Automaton {
	return &shallow{hits: s.hits} // WRONG: shares the counter
}
func (s *shallow) AppendEncode(dst []byte) []byte {
	return append(dst, strings.Repeat("x", *s.hits)...)
}

func TestCheckDeterminismCatchesSharedClone(t *testing.T) {
	h := 0
	sys := MustNewSystem(&shallow{hits: &h})
	err := CheckDeterminism(sys, RoundRobinSchedule(sys, 4))
	if err == nil {
		t.Fatal("shared-state clone not detected")
	}
}

func TestCheckDeterminismRejectsBadSchedule(t *testing.T) {
	sys := MustNewSystem(&counter{name: "c"})
	if err := CheckDeterminism(sys, []TaskRef{{Auto: 9, Task: 0}}); err == nil {
		t.Fatal("out-of-range schedule accepted")
	}
}

func TestRoundRobinScheduleLength(t *testing.T) {
	sys := MustNewSystem(&counter{name: "c"}, &poker{})
	if got := len(RoundRobinSchedule(sys, 5)); got != 10 {
		t.Fatalf("schedule length = %d, want 10", got)
	}
}
