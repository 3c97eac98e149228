package problems

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/trace"
)

// buildKSetSystem composes the detector-free k-set solver (crash events
// arrive as external inputs, so crash independence can be tested by
// deleting them).
func buildKSetSystem(n, f int, vals []string) *ioa.System {
	autos := KSetProcs(n, f)
	autos = append(autos, system.Channels(n)...)
	for i, v := range vals {
		autos = append(autos, newProposerEnv(ioa.Loc(i), v))
	}
	return ioa.MustNewSystem(autos...)
}

func isCrash(a ioa.Action) bool { return a.Kind == ioa.KindCrash }

// TestLemma24CrashIndependence replays the Lemma 23/24 construction of the
// Theorem-21 proof on the (crash-independent, bounded) k-set solver:
//
//	(1) run the system with a crash injected, producing a finite trace tq
//	    whose pending messages are then delivered in lexicographic channel
//	    order (the quiescent execution αq of Lemma 23);
//	(2) delete exactly the crash events, yielding t0;
//	(3) t0 is again a trace of the system (Lemma 24): the replayer accepts
//	    every event, with the channels' FIFO discipline intact.
func TestLemma24CrashIndependence(t *testing.T) {
	const n, f = 3, 1
	vals := []string{"b", "a", "c"}

	// (1) the crashed run, stopped at quiescence.
	sys := buildKSetSystem(n, f, vals)
	crashAt := 6
	steps := 0
	sched.RoundRobin(sys, sched.Options{
		MaxSteps: 10_000,
		Stop: func(s *ioa.System, _ ioa.Action) bool {
			steps++
			if steps == crashAt {
				s.Apply(-1, ioa.Crash(2)) // crash injected externally
			}
			return false
		},
	})
	tq := append(trace.T{}, sys.Trace()...)
	if trace.FirstCrashIndex(tq, 2) < 0 {
		t.Fatal("setup: crash missing from tq")
	}
	// Lemma 23: deliver the backlog (here the scheduler already drained to
	// quiescence, so the cut is a no-op — assert that).
	if pend := PendingMessages(tq); len(pend) != 0 {
		tq = QuiescentCut(tq, pend)
	}

	// (2) delete exactly the crash events.
	t0 := trace.Project(tq, func(a ioa.Action) bool { return !isCrash(a) })

	// (3) replay t0 on a fresh copy of the system.
	fresh := buildKSetSystem(n, f, vals)
	if idx, err := ioa.ReplayTrace(fresh, t0, 0, isCrash); err != nil {
		t.Fatalf("t0 is not a trace of the system (crash independence fails) at %d: %v", idx, err)
	}
}

// TestReplayTraceRejectsImpossibleEvents: the replayer is sound — inserting
// an event the system cannot produce is caught.
func TestReplayTraceRejectsImpossibleEvents(t *testing.T) {
	sys := buildKSetSystem(2, 0, []string{"x", "y"})
	bogus := trace.T{ioa.Send(0, 1, "forged")}
	if _, err := ioa.ReplayTrace(sys, bogus, 0, isCrash); err == nil {
		t.Fatal("forged send accepted")
	}
	sys2 := buildKSetSystem(2, 0, []string{"x", "y"})
	unknown := trace.T{ioa.EnvInput("weird", 0, "")}
	if _, err := ioa.ReplayTrace(sys2, unknown, 0, func(ioa.Action) bool { return true }); err == nil {
		t.Fatal("externally declared event with no acceptor accepted")
	}
}

// TestReplayRoundTrip: any scheduler-produced trace replays cleanly, with
// crashes declared external exactly when the crash automaton is excluded
// from the replay composition.
func TestReplayRoundTrip(t *testing.T) {
	const n, f = 3, 1
	vals := []string{"q", "p", "r"}
	orig := buildKSetSystem(n, f, vals)
	// Include a crash automaton in the producing run only.
	withCrash := append(orig.Automata(), system.NewCrash(system.CrashOf(1)))
	prod := ioa.MustNewSystem(withCrash...)
	sched.Random(prod, 3, sched.Options{MaxSteps: 5_000, Gate: sched.CrashesAfter(10, 0)})

	fresh := buildKSetSystem(n, f, vals)
	if idx, err := ioa.ReplayTrace(fresh, prod.Trace(), 0, isCrash); err != nil {
		t.Fatalf("produced trace does not replay at %d: %v", idx, err)
	}
}
