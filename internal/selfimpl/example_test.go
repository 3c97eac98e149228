package selfimpl_test

import (
	"fmt"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/selfimpl"
	"repro/internal/system"
	"repro/internal/trace"
)

// Self-implementability (Algorithm 3, Theorem 13): stack the Aself queue
// automata on the canonical P detector, run with a crash, and replay the
// Section-6 proof on the trace — the rEV event mapping (Lemma 2), the
// sampled subsequence tˆ (Lemma 6), the constrained reordering (Lemma 9)
// and the membership conclusion (Lemma 12).
func ExampleVerifyProof() {
	const n = 3
	d, _ := afd.Lookup(afd.FamilyP, n)
	ren := selfimpl.Renaming{From: afd.FamilyP, To: afd.FamilyP + "'"}

	autos := []ioa.Automaton{d.Automaton(n)}
	autos = append(autos, selfimpl.NewCollection(n, ren)...)
	autos = append(autos, system.NewCrash(system.CrashOf(2)))
	sys := ioa.MustNewSystem(autos...)
	sched.RoundRobin(sys, sched.Options{MaxSteps: 300, Gate: sched.CrashesAfter(80, 0)})

	mixed := trace.Project(sys.Trace(), func(a ioa.Action) bool {
		return a.Kind == ioa.KindCrash ||
			(a.Kind == ioa.KindFD && (a.Name == ren.From || a.Name == ren.To))
	})
	fmt.Printf("trace over Iˆ ∪ OD ∪ OD′: %d events; first 10:\n", len(mixed))
	for i := 0; i < 10; i++ {
		fmt.Printf("  %2d %v\n", i, mixed[i])
	}
	rep, err := selfimpl.VerifyProof(mixed, n, ren)
	if err != nil {
		fmt.Println("proof pipeline:", err)
		return
	}
	fmt.Printf("Lemma 2: rEV maps %d renamed events to their sources\n", len(rep.REV))
	fmt.Printf("Lemma 6: tˆ retains %d of the source outputs and is a sampling of t|Iˆ∪OD\n", rep.SampledLen)
	fmt.Println("Lemma 9: t|Iˆ∪OD′ is a constrained reordering of rIO(tˆ|Iˆ∪OD)")
	back := ren.InvertTrace(trace.FD(sys.Trace(), ren.To))
	fmt.Println("Lemma 12: t|Iˆ∪OD′ ∈ TD′:", d.Check(back, n, afd.DefaultWindow()) == nil)
	// Output:
	// trace over Iˆ ∪ OD ∪ OD′: 300 events; first 10:
	//    0 FD-P({})_0
	//    1 FD-P({})_1
	//    2 FD-P({})_2
	//    3 FD-P'({})_0
	//    4 FD-P'({})_1
	//    5 FD-P'({})_2
	//    6 FD-P({})_0
	//    7 FD-P({})_1
	//    8 FD-P({})_2
	//    9 FD-P'({})_0
	// Lemma 2: rEV maps 149 renamed events to their sources
	// Lemma 6: tˆ retains 149 of the source outputs and is a sampling of t|Iˆ∪OD
	// Lemma 9: t|Iˆ∪OD′ is a constrained reordering of rIO(tˆ|Iˆ∪OD)
	// Lemma 12: t|Iˆ∪OD′ ∈ TD′: true
}

// Algorithm 3 on four detector families (Theorem 13, EXPERIMENTS.md E5):
// Aself relays each family D's outputs as the renamed family D′ while
// location 3 crashes, the Section-6 proof pipeline verifies the run, and
// the renamed-back outputs pass D's own checker.  Under the fair schedule
// the queues drain as fast as they fill: 399 of the 800 events are relays.
func ExampleNewCollection() {
	const n = 4
	fmt.Printf("%-6s %7s %6s  %s\n", "family", "relayed", "events", "verdict")
	for _, fam := range []string{afd.FamilyP, afd.FamilyOmega, afd.FamilySigma, afd.FamilyEvP} {
		d, _ := afd.Lookup(fam, n)
		ren := selfimpl.Renaming{From: fam, To: fam + "'"}
		autos := append([]ioa.Automaton{d.Automaton(n)}, selfimpl.NewCollection(n, ren)...)
		sys := ioa.MustNewSystem(append(autos, system.NewCrash(system.CrashOf(3)))...)
		sched.RoundRobin(sys, sched.Options{MaxSteps: 800, Gate: sched.CrashesAfter(200, 0)})
		tr := sys.Trace()
		relayed := trace.Count(tr, func(a ioa.Action) bool { return a.Kind == ioa.KindFD && a.Name == ren.To })
		verdict := "ok"
		if _, err := selfimpl.VerifyProof(tr, n, ren); err != nil {
			verdict = err.Error()
		} else if err := d.Check(ren.InvertTrace(trace.FD(tr, ren.To)), n, afd.DefaultWindow()); err != nil {
			verdict = err.Error()
		}
		fmt.Printf("%-6s %7d %6d  %s\n", fam, relayed, len(tr), verdict)
	}
	// Output:
	// family relayed events  verdict
	// FD-P       399    800  ok
	// FD-Ω       399    800  ok
	// FD-Σ       399    800  ok
	// FD-◇P      399    800  ok
}
