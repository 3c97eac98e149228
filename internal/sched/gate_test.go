package sched

import (
	"fmt"
	"testing"

	"repro/internal/ioa"
	"repro/internal/system"
)

// TestCrashesAfterSharedGateSafe: CrashesAfter is a pure function since the
// PR-2 fix, so sharing one gate value between runs is harmless.  The old
// stateful gate carried its release counter from the first run into the
// second, which silently suppressed the second run's crashes.
func TestCrashesAfterSharedGateSafe(t *testing.T) {
	countCrashes := func(gate Gate) int {
		sys := build(t, system.CrashOf(0))
		RoundRobin(sys, Options{MaxSteps: 50, Gate: gate})
		n := 0
		for _, a := range sys.Trace() {
			if a.Kind == ioa.KindCrash {
				n++
			}
		}
		return n
	}
	shared := CrashesAfter(1, 40)
	if got := countCrashes(shared); got != 1 {
		t.Fatalf("shared gate run 1: %d crashes, want 1", got)
	}
	if got := countCrashes(shared); got != 1 {
		t.Fatalf("shared gate run 2: %d crashes, want 1 (gate must be stateless)", got)
	}
}

// ticker is an always-enabled single-task automaton with no inputs; it gives
// the random schedulers a perpetual non-crash candidate so gate behavior can
// be observed over long runs.
type ticker struct {
	id    ioa.Loc
	fired int
}

var _ ioa.Automaton = (*ticker)(nil)
var _ ioa.Signatured = (*ticker)(nil)

func (k *ticker) Name() string                   { return fmt.Sprintf("ticker[%v]", k.id) }
func (k *ticker) Accepts(ioa.Action) bool        { return false }
func (k *ticker) SignatureKeys() []ioa.SigKey    { return nil }
func (k *ticker) Input(ioa.Action)               {}
func (k *ticker) NumTasks() int                  { return 1 }
func (k *ticker) TaskLabel(int) string           { return "tick" }
func (k *ticker) Fire(ioa.Action)                { k.fired++ }
func (k *ticker) Clone() ioa.Automaton           { c := *k; return &c }
func (k *ticker) AppendEncode(dst []byte) []byte { return append(dst, "T"...) }
func (k *ticker) Enabled(int) (ioa.Action, bool) {
	return ioa.EnvOutput("tick", k.id, ""), true
}

// TestCrashesAfterConsultIdempotent is the regression test for the PR-2
// release-ratchet bug: Random consults the gate for every candidate it
// collects, and the old stateful CrashesAfter advanced its release counter
// on each *admission*, so a crash that was admitted into the candidate set
// but not drawn postponed the next release by gap.  With three always-ready
// tickers competing, crashes drifted arbitrarily far past their thresholds
// (hundreds of steps in practice).  The pure gate releases the k-th crash
// at exactly step + k*gap no matter how often it is consulted, so under a
// uniform pick among four ready tasks the crash must land within a short
// geometric tail of its threshold.
func TestCrashesAfterConsultIdempotent(t *testing.T) {
	const after, gap, slack = 20, 10, 80
	for seed := int64(0); seed < 10; seed++ {
		sys, err := ioa.NewSystem(
			&ticker{id: 0}, &ticker{id: 1}, &ticker{id: 2},
			system.NewCrash(system.CrashOf(0, 1)),
		)
		if err != nil {
			t.Fatal(err)
		}
		Random(sys, seed, Options{MaxSteps: 300, Gate: CrashesAfter(after, gap)})
		var crashAt []int
		for i, a := range sys.Trace() {
			if a.Kind == ioa.KindCrash {
				crashAt = append(crashAt, i)
			}
		}
		if len(crashAt) != 2 {
			t.Fatalf("seed %d: %d crashes fired, want 2", seed, len(crashAt))
		}
		for k, at := range crashAt {
			lo := after + k*gap
			if at < lo {
				t.Fatalf("seed %d: crash %d at step %d, before threshold %d", seed, k, at, lo)
			}
			if at > lo+slack {
				t.Fatalf("seed %d: crash %d at step %d, release ratchet? threshold %d",
					seed, k, at, lo)
			}
		}
	}
}

// TestCrashesAfterGapZeroReleasesAllAtOnce is the regression test for the
// gap = 0 edge case: once the step threshold is reached, every planned
// crash is released back-to-back.
func TestCrashesAfterGapZeroReleasesAllAtOnce(t *testing.T) {
	sys := build(t, system.CrashOf(0, 1, 0))
	RoundRobin(sys, Options{MaxSteps: 100, Gate: CrashesAfter(3, 0)})
	var crashSteps []int
	for i, a := range sys.Trace() {
		if a.Kind == ioa.KindCrash {
			crashSteps = append(crashSteps, i)
		}
	}
	if len(crashSteps) != 3 {
		t.Fatalf("%d crashes fired, want all 3", len(crashSteps))
	}
	if crashSteps[0] < 3 {
		t.Fatalf("first crash at trace index %d, before threshold", crashSteps[0])
	}
	// Back-to-back: consecutive trace positions once released.
	for i := 1; i < len(crashSteps); i++ {
		if crashSteps[i] != crashSteps[i-1]+1 {
			t.Fatalf("crashes not back-to-back at indices %v", crashSteps)
		}
	}
}

func TestGatesConjunction(t *testing.T) {
	always := Gate(func(int, ioa.TaskRef, ioa.Action) bool { return true })
	never := Gate(func(int, ioa.TaskRef, ioa.Action) bool { return false })
	g := Gates(always, nil, never)
	if g(0, ioa.TaskRef{}, ioa.Action{}) {
		t.Fatal("conjunction with a vetoing gate admitted an action")
	}
	g = Gates(always, nil)
	if !g(0, ioa.TaskRef{}, ioa.Action{}) {
		t.Fatal("conjunction of admitting gates vetoed an action")
	}
}

func TestPRNGDeterministicAndSpread(t *testing.T) {
	a, b := NewPRNG(42), NewPRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Intn(97) != b.Intn(97) {
			t.Fatal("same seed diverged")
		}
	}
	seen := make(map[int]bool)
	r := NewPRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("1000 draws hit only %d/10 values", len(seen))
	}
}

func TestRandomPriorityPrefersHighPriority(t *testing.T) {
	// Priority favoring the 1→0 channel: its delivery must fire first even
	// though two 0→1 messages are also ready.
	sys := build(t, system.NoFaults())
	res := RandomPriority(sys, NewPRNG(1), func(_ ioa.TaskRef, act ioa.Action) int {
		if act.Kind == ioa.KindReceive && act.Peer == 1 {
			return 1
		}
		return 0
	}, Options{MaxSteps: 100})
	if res.Reason != StopQuiescent {
		t.Fatalf("reason = %s", res.Reason)
	}
	tr := sys.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace length = %d, want 3", len(tr))
	}
	if tr[0].Peer != 1 || tr[0].Kind != ioa.KindReceive {
		t.Fatalf("first event %v, want the prioritized 1→0 delivery", tr[0])
	}
}

func TestRandomPriorityDeterministicPerSeed(t *testing.T) {
	run := func() []ioa.Action {
		sys := build(t, system.CrashOf(1))
		RandomPriority(sys, NewPRNG(9), func(ioa.TaskRef, ioa.Action) int { return 0 },
			Options{MaxSteps: 100})
		return append([]ioa.Action(nil), sys.Trace()...)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("same seed, different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different schedules")
		}
	}
}
