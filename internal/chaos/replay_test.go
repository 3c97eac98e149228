package chaos

import (
	"fmt"
	"testing"

	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/trace"
)

// feedInChunks replays a's trace through a Replayer in chunks of size
// events and returns Finish's verdict.  Once a chunk is rejected, a further
// Feed must return the same rejection.
func feedInChunks(t *testing.T, a *trace.Artifact, size int, instrument func(*Built) func() error) error {
	t.Helper()
	p, err := NewReplayer(a, instrument)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(a.Trace); lo += size {
		hi := min(lo+size, len(a.Trace))
		if err := p.Feed(a.Trace[lo:hi]); err != nil {
			if again := p.Feed(a.Trace[hi:]); again != err {
				t.Errorf("chunks of %d: Feed after a rejection returned %v, want %v", size, again, err)
			}
			break
		}
	}
	return p.Finish()
}

// TestReplayerChunksMatchOneShot: for every registered kind, feeding the
// recorded trace to a Replayer one event at a time, seven at a time or all
// at once gives ReplayThroughSystem's verdict — success on the record, the
// same message and event index on a forged receive payload, and the
// "not byte-identical" counts when a hook hides one action name.
func TestReplayerChunksMatchOneShot(t *testing.T) {
	for _, id := range Kinds() {
		t.Run(id, func(t *testing.T) {
			target, err := ParseTarget(id)
			if err != nil {
				t.Fatal(err)
			}
			const n = 3
			plan := system.NoFaults()
			if target.MaxT(n) > 0 {
				plan = system.CrashOf(0)
			}
			v, err := Execute(Run{Target: target, N: n, Plan: plan, Gates: GateSpec{CrashAfter: 10, StarveFrom: -1, StarveTo: -1}, Sched: SchedRandom, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			a := v.Artifact()
			if err := ReplayThroughSystem(a); err != nil {
				t.Fatalf("one-shot replay: %v", err)
			}
			sizes := []int{1, 7, len(a.Trace)}
			for _, size := range sizes {
				if err := feedInChunks(t, a, size, nil); err != nil {
					t.Errorf("chunks of %d: %v", size, err)
				}
			}

			forged := *a
			forged.Trace = append(trace.T(nil), a.Trace...)
			for i := range forged.Trace {
				if forged.Trace[i].Kind == ioa.KindReceive {
					forged.Trace[i].Payload += "-forged"
					break
				}
			}
			if trace.Equal(forged.Trace, a.Trace) {
				t.Logf("%s records no receive event; no forgery to replay", id)
			} else {
				want := ReplayThroughSystem(&forged)
				if want == nil {
					t.Fatal("one-shot replay accepted a forged receive payload")
				}
				for _, size := range sizes {
					if got := feedInChunks(t, &forged, size, nil); fmt.Sprint(got) != want.Error() {
						t.Errorf("forged, chunks of %d: %v, want %v", size, got, want)
					}
				}
			}

			name := a.Trace[len(a.Trace)-1].Name
			hide := func(b *Built) func() error {
				b.Sys.Hide(func(act ioa.Action) bool { return act.Name == name })
				return nil
			}
			visible := trace.Count(a.Trace, func(act ioa.Action) bool { return act.Name != name })
			want := fmt.Sprintf("chaos: cross-engine replay traced %d events, recorded %d — not byte-identical",
				visible, len(a.Trace))
			if got := ReplayThroughSystemInstrumented(a, hide); fmt.Sprint(got) != want {
				t.Errorf("hiding %q, one shot: %v, want %s", name, got, want)
			}
			for _, size := range sizes {
				if got := feedInChunks(t, a, size, hide); fmt.Sprint(got) != want {
					t.Errorf("hiding %q, chunks of %d: %v, want %s", name, size, got, want)
				}
			}
		})
	}
}

// TestCrossEngineReplayKeepsNoLog: the cross-engine pass certifies each
// event as it replays it, so the fresh system holds no log once the whole
// trace has replayed.
func TestCrossEngineReplayKeepsNoLog(t *testing.T) {
	target, err := ParseTarget("gossip:FD-◇Q>FD-◇P")
	if err != nil {
		t.Fatal(err)
	}
	v, err := Execute(Run{Target: target, N: 4, Plan: system.CrashOf(3)})
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	err = ReplayThroughSystemInstrumented(v.Artifact(), func(b *Built) func() error {
		return func() error {
			checked = true
			if got := len(b.Sys.Trace()); got != 0 {
				return fmt.Errorf("the replaying system holds %d events of %d replayed", got, len(v.Trace))
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("the hook's check never ran")
	}
}
