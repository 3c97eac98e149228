package afd_test

import (
	"fmt"

	"repro/internal/afd"
	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/trace"
)

// Running Algorithm 1 (the Ω automaton) under a fault pattern and checking
// the trace against TΩ.
func ExampleOmega() {
	v, err := chaos.Execute(chaos.Run{
		Target: chaos.DetectorTarget{Family: afd.FamilyOmega},
		N:      3,
		Plan:   system.CrashOf(0), // the initial leader crashes
		Gates:  chaos.GateSpec{CrashAfter: 30, CrashGap: 30},
		Steps:  120, // of the fair round-robin schedule
	})
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	tr := v.Trace
	err = afd.Omega{}.Check(tr, 3, afd.DefaultWindow())
	fmt.Println("events:", len(tr), "admissible:", err == nil)
	// The last output names the post-crash leader.
	last := tr[len(tr)-1]
	fmt.Println("final output:", last.String())
	// Output:
	// events: 120 admissible: true
	// final output: FD-Ω(1)_1
}

// The prefix-admissibility mode accepts unstabilized prefixes while still
// enforcing safety clauses.
func ExamplePrefixWindow() {
	flapping := []ioa.Action{
		ioa.FDOutput(afd.FamilyOmega, 0, "0"),
		ioa.FDOutput(afd.FamilyOmega, 1, "1"),
	}
	full := afd.Omega{}.Check(flapping, 2, afd.DefaultWindow())
	prefix := afd.Omega{}.Check(flapping, 2, afd.PrefixWindow())
	fmt.Println("complete-trace check passes:", full == nil)
	fmt.Println("prefix check passes:", prefix == nil)
	// Output:
	// complete-trace check passes: false
	// prefix check passes: true
}

// The zoo of Section 3.3 side by side: every family's canonical automaton
// runs under one fault pattern, and each trace is checked for membership
// and for the two closure properties that make the family an AFD.  The
// negative controls of Section 3.4 and footnote 1 follow: the Marabout's
// causal automaton fails its specification, and P+ is not closed under
// constrained reordering.
func ExampleFamilies() {
	const n = 4
	w := afd.DefaultWindow()
	plan := []ioa.Loc{3, 0} // two crashes; locations 1, 2 stay live
	verdict := func(err error) string {
		if err != nil {
			return "FAIL"
		}
		return "ok"
	}
	fmt.Printf("%-10s %-34s %-8s %-9s %s\n", "family", "final output", "member", "sampling", "reorder")
	for _, fam := range afd.Families(n) {
		d, _ := afd.Lookup(fam, n)
		v, err := chaos.Execute(detectorRun(fam, n, plan, 240, 50))
		if err != nil {
			fmt.Println(fam, "run:", err)
			return
		}
		tr := v.Trace
		last := "-"
		for i := len(tr) - 1; i >= 0; i-- {
			if tr[i].Kind == ioa.KindFD {
				last = tr[i].String()
				break
			}
		}
		fmt.Printf("%-10s %-34s %-8s %-9s %s\n", fam, last, verdict(d.Check(tr, n, w)),
			verdict(afd.CheckClosureUnderSampling(d, tr, n, w, 10, 1)),
			verdict(afd.CheckClosureUnderReordering(d, tr, n, w, 10, 1)))
	}

	// No chaos target builds the Marabout automaton: compose it directly.
	honest := ioa.MustNewSystem(afd.MaraboutHonest(n), system.NewCrash(system.CrashOf(plan...)))
	sched.RoundRobin(honest, sched.Options{MaxSteps: 240, Gate: sched.CrashesAfter(50, 50)})
	fmt.Println("Marabout, causal automaton:", afd.CheckMarabout(honest.Trace(), n, w))
	base := trace.T{
		ioa.FDOutput(afd.FamilyPPlus, 1, "{}"),
		ioa.Crash(0),
		ioa.FDOutput(afd.FamilyPPlus, 1, "{0}"),
	}
	reordered := trace.T{base[1], base[0], base[2]}
	fmt.Println("P+: reordering constrained:", trace.IsConstrainedReordering(reordered, base) == nil,
		"original admissible:", afd.CheckPPlus(base, 2, w) == nil,
		"reordering admissible:", afd.CheckPPlus(reordered, 2, w) == nil)
	// Output:
	// family     final output                       member   sampling  reorder
	// FD-P       FD-P({0,3})_2                      ok       ok        ok
	// FD-Q       FD-Q({})_2                         ok       ok        ok
	// FD-S       FD-S({0,3})_2                      ok       ok        ok
	// FD-W       FD-W({})_2                         ok       ok        ok
	// FD-antiΩ   FD-antiΩ(2)_2                      ok       ok        ok
	// FD-Σ       FD-Σ({1,2})_2                      ok       ok        ok
	// FD-Ψk      FD-Ψk({1,2};{1,2})_2               ok       ok        ok
	// FD-Ω       FD-Ω(1)_2                          ok       ok        ok
	// FD-Ωk      FD-Ωk({1,2})_2                     ok       ok        ok
	// FD-◇P      FD-◇P({0,3})_2                     ok       ok        ok
	// FD-◇Q      FD-◇Q({})_2                        ok       ok        ok
	// FD-◇S      FD-◇S({0,3})_2                     ok       ok        ok
	// FD-◇W      FD-◇W({})_2                        ok       ok        ok
	// Marabout, causal automaton: afd: Marabout output FD-Marabout({})_0 differs from final fault set {0,3}
	// P+: reordering constrained: true original admissible: true reordering admissible: false
}
