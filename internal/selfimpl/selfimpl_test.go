package selfimpl

import (
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/trace"
)

// runSelf composes D's canonical automaton, Aself, and a crash automaton,
// runs a schedule, and returns the full external trace.
func runSelf(t *testing.T, d afd.Detector, n int, ren Renaming, plan []ioa.Loc, seed int64, steps int) trace.T {
	t.Helper()
	autos := []ioa.Automaton{d.Automaton(n)}
	autos = append(autos, NewCollection(n, ren)...)
	autos = append(autos, system.NewCrash(system.CrashOf(plan...)))
	sys, err := ioa.NewSystem(autos...)
	if err != nil {
		t.Fatal(err)
	}
	opts := sched.Options{MaxSteps: steps, Gate: sched.CrashesAfter(steps/4, steps/8)}
	if seed >= 0 {
		sched.Random(sys, seed, opts)
	} else {
		sched.RoundRobin(sys, opts)
	}
	return sys.Trace()
}

func TestRenamingApplyInvert(t *testing.T) {
	r := Renaming{From: "FD-A", To: "FD-A'"}
	a := ioa.FDOutput("FD-A", 1, "x")
	ap := r.Apply(a)
	if ap.Name != "FD-A'" || ap.Loc != 1 || ap.Payload != "x" {
		t.Fatalf("Apply = %v", ap)
	}
	if r.Invert(ap) != a {
		t.Fatal("Invert(Apply(a)) != a")
	}
	c := ioa.Crash(0)
	if r.Apply(c) != c || r.Invert(c) != c {
		t.Fatal("crash actions must be fixed points (condition 2b)")
	}
	other := ioa.FDOutput("FD-B", 0, "y")
	if r.Apply(other) != other {
		t.Fatal("foreign families must be untouched")
	}
	tr := trace.T{a, c}
	if got := r.InvertTrace(r.ApplyTrace(tr)); !trace.Equal(got, tr) {
		t.Fatal("trace-level round trip failed")
	}
}

func TestAselfQueueSemantics(t *testing.T) {
	ren := Renaming{From: "FD-A", To: "FD-A'"}
	a := NewAself(0, ren)
	if _, ok := a.Enabled(0); ok {
		t.Fatal("empty queue must disable output")
	}
	a.Input(ioa.FDOutput("FD-A", 0, "p1"))
	a.Input(ioa.FDOutput("FD-A", 0, "p2"))
	if a.QueueDepth() != 2 {
		t.Fatalf("QueueDepth = %d", a.QueueDepth())
	}
	act, ok := a.Enabled(0)
	if !ok || act != ioa.FDOutput("FD-A'", 0, "p1") {
		t.Fatalf("Enabled = %v, want renamed head p1", act)
	}
	a.Fire(act)
	act, _ = a.Enabled(0)
	if act.Payload != "p2" {
		t.Fatal("FIFO order violated")
	}
}

func TestAselfCrashDisablesPermanently(t *testing.T) {
	ren := Renaming{From: "FD-A", To: "FD-A'"}
	a := NewAself(1, ren)
	a.Input(ioa.FDOutput("FD-A", 1, "p"))
	a.Input(ioa.Crash(1))
	if _, ok := a.Enabled(0); ok {
		t.Fatal("crash must disable outputs despite a non-empty queue")
	}
}

func TestAselfAccepts(t *testing.T) {
	ren := Renaming{From: "FD-A", To: "FD-A'"}
	a := NewAself(1, ren)
	if !a.Accepts(ioa.FDOutput("FD-A", 1, "p")) {
		t.Error("must accept own-location inputs of From family")
	}
	if a.Accepts(ioa.FDOutput("FD-A", 0, "p")) {
		t.Error("must not accept other locations' inputs")
	}
	if a.Accepts(ioa.FDOutput("FD-A'", 1, "p")) {
		t.Error("must not accept its own output family")
	}
	if !a.Accepts(ioa.Crash(1)) || a.Accepts(ioa.Crash(0)) {
		t.Error("crash acceptance wrong")
	}
}

func TestAselfCloneIndependence(t *testing.T) {
	ren := Renaming{From: "FD-A", To: "FD-A'"}
	a := NewAself(0, ren)
	a.Input(ioa.FDOutput("FD-A", 0, "p"))
	c := a.Clone()
	a.Fire(ioa.FDOutput("FD-A'", 0, "p"))
	if string(c.AppendEncode(nil)) == string(a.AppendEncode(nil)) {
		t.Fatal("clone shares queue")
	}
}

// TestTheorem13 is E5: for every detector in the zoo, Aself stacked on the
// canonical implementation produces renamed traces that, mapped back through
// rIO⁻¹, the original checker accepts — i.e. Aself uses D to solve a
// renaming of D.  The Section-6 proof pipeline is verified on every trace.
func TestTheorem13(t *testing.T) {
	const n = 3
	w := afd.DefaultWindow()
	for family, d := range afd.Standard(n) {
		ren := Renaming{From: family, To: family + "'"}
		for _, plan := range [][]ioa.Loc{nil, {2}, {0, 2}} {
			for _, seed := range []int64{-1, 3} {
				full := runSelf(t, d, n, ren, plan, seed, 600)

				// The source projection is admissible (sanity).
				src := trace.FD(full, family)
				if err := d.Check(src, n, w); err != nil {
					t.Fatalf("%s: source trace rejected: %v", family, err)
				}

				// Proof pipeline: Lemmas 2, 6, 9 hold on the trace.
				mixed := trace.Project(full, func(a ioa.Action) bool {
					return a.Kind == ioa.KindCrash ||
						(a.Kind == ioa.KindFD && (a.Name == ren.From || a.Name == ren.To))
				})
				rep, err := VerifyProof(mixed, n, ren)
				if err != nil {
					t.Fatalf("%s plan %v seed %d: %v", family, plan, seed, err)
				}
				if len(rep.REV) == 0 {
					t.Fatalf("%s: no renamed outputs produced", family)
				}

				// Conclusion (Lemma 12): the renamed projection, mapped
				// back through rIO⁻¹, is admissible for D.
				renamed := trace.FD(full, ren.To)
				back := ren.InvertTrace(renamed)
				if err := d.Check(back, n, w); err != nil {
					t.Errorf("%s plan %v seed %d: renamed trace not in TD′: %v",
						family, plan, seed, err)
				}
			}
		}
	}
}

func TestVerifyProofRejectsForgedOutput(t *testing.T) {
	ren := Renaming{From: "FD-A", To: "FD-A'"}
	// A primed output with no preceding source event.
	tr := trace.T{ioa.FDOutput("FD-A'", 0, "p")}
	if _, err := VerifyProof(tr, 1, ren); err == nil {
		t.Fatal("forged renamed output must fail Lemma 2")
	}
	// A primed output whose payload does not match its source.
	tr = trace.T{ioa.FDOutput("FD-A", 0, "p"), ioa.FDOutput("FD-A'", 0, "q")}
	if _, err := VerifyProof(tr, 1, ren); err == nil {
		t.Fatal("mismatched renaming must fail Lemma 2")
	}
}

func TestVerifyProofAcceptsInterleavedDelay(t *testing.T) {
	// Renamed outputs may lag arbitrarily (the queue delays them); the
	// proof pipeline accepts any FIFO-consistent interleaving.
	ren := Renaming{From: "FD-A", To: "FD-A'"}
	tr := trace.T{
		ioa.FDOutput("FD-A", 0, "p1"),
		ioa.FDOutput("FD-A", 0, "p2"),
		ioa.FDOutput("FD-A'", 0, "p1"),
		ioa.FDOutput("FD-A", 1, "q1"),
		ioa.FDOutput("FD-A'", 1, "q1"),
		ioa.FDOutput("FD-A'", 0, "p2"),
	}
	rep, err := VerifyProof(tr, 2, ren)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SampledLen != 3 {
		t.Fatalf("SampledLen = %d, want 3", rep.SampledLen)
	}
}

func TestVerifyProofSamplesFaultySuffix(t *testing.T) {
	// Location 0 crashes with one un-relayed queue entry: tˆ must drop the
	// unmatched source output (sampling at a faulty location).
	ren := Renaming{From: "FD-A", To: "FD-A'"}
	tr := trace.T{
		ioa.FDOutput("FD-A", 0, "p1"),
		ioa.FDOutput("FD-A'", 0, "p1"),
		ioa.FDOutput("FD-A", 0, "p2"), // queued but never relayed
		ioa.Crash(0),
		ioa.FDOutput("FD-A", 1, "q1"),
		ioa.FDOutput("FD-A'", 1, "q1"),
	}
	rep, err := VerifyProof(tr, 2, ren)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SampledLen != 2 {
		t.Fatalf("SampledLen = %d, want 2 (p2 dropped)", rep.SampledLen)
	}
}
