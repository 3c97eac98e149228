package transform_test

import (
	"fmt"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/transform"
)

// The ⪰ relation of Section 7 made executable: one canonical P automaton
// drives a fan of reductions — P→◇P, P→Ω, P→Σ — side by side in one
// system, and every derived stream passes its own detector's membership
// checker.  Then the chained P→◇P→Ω of Theorem 15 derives a valid Ω.
func ExampleCatalog() {
	const n = 4
	w := afd.DefaultWindow()
	byName := make(map[string]transform.Local)
	for _, l := range transform.Catalog() {
		byName[l.Name] = l
	}
	fan := []transform.Local{byName["P→◇P"], byName["P→Ω"], byName["P→Σ"]}

	src, _ := afd.Lookup(afd.FamilyP, n)
	autos := []ioa.Automaton{src.Automaton(n)}
	for _, l := range fan {
		autos = append(autos, l.Procs(n)...)
	}
	autos = append(autos, system.NewCrash(system.CrashOf(3)))
	sys := ioa.MustNewSystem(autos...)
	sched.RoundRobin(sys, sched.Options{MaxSteps: 2000, Gate: sched.CrashesAfter(400, 0)})
	for _, l := range fan {
		tgt, _ := afd.Lookup(l.To, n)
		derived := trace.FD(sys.Trace(), l.To)
		fmt.Printf("%-6s: %4d derived events, admissible: %t\n", l.Name, len(derived), tgt.Check(derived, n, w) == nil)
	}

	chain := transform.Chain{byName["P→◇P"], byName["◇P→Ω"]}
	procs, err := chain.Procs(n)
	if err != nil {
		fmt.Println("chain:", err)
		return
	}
	tr, err := transform.Run(src, procs, afd.FamilyOmega, transform.RunSpec{
		N: n, Crash: []ioa.Loc{3}, Seed: -1, Steps: 2000, CrashGate: 400,
	})
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Printf("%s: %4d derived events, admissible: %t\n", chain.Names(), len(tr), afd.Omega{}.Check(tr, n, w) == nil)
	// Output:
	// P→◇P  :  500 derived events, admissible: true
	// P→Ω   :  500 derived events, admissible: true
	// P→Σ   :  500 derived events, admissible: true
	// P→◇P ∘ ◇P→Ω:  666 derived events, admissible: true
}

// Every reduction of the catalog, run alone (Theorem 16, EXPERIMENTS.md
// E6): the source detector's canonical automaton drives the reduction for
// 1200 steps while location 3 crashes, and the derived trace passes the
// target family's checker.  Each stage emits one output per source
// output.
func ExampleRun() {
	const n = 4
	w := afd.DefaultWindow()
	fmt.Printf("%-9s %7s %7s  %s\n", "reduction", "derived", "crashes", "verdict")
	for _, l := range transform.Catalog() {
		src, _ := afd.Lookup(l.From, n)
		tgt, _ := afd.Lookup(l.To, n)
		tr, err := transform.Run(src, l.Procs(n), l.To, transform.RunSpec{
			N: n, Crash: []ioa.Loc{3}, Seed: -1, Steps: 1200, CrashGate: 200,
		})
		if err != nil {
			fmt.Println(l.Name, "run:", err)
			return
		}
		outs := trace.Count(tr, afd.IsOutput(l.To))
		verdict := "ok"
		if err := tgt.Check(tr, n, w); err != nil {
			verdict = err.Error()
		}
		fmt.Printf("%-9s %7d %7d  %s\n", l.Name, outs, len(tr)-outs, verdict)
	}
	// Output:
	// reduction derived crashes  verdict
	// P→◇P          598       1  ok
	// P→S           598       1  ok
	// P→Q           598       1  ok
	// S→◇S          598       1  ok
	// ◇P→◇S         598       1  ok
	// ◇P→◇Q         598       1  ok
	// ◇S→◇W         598       1  ok
	// S→W           598       1  ok
	// P→Ω           598       1  ok
	// ◇P→Ω          598       1  ok
	// P→Σ           598       1  ok
	// Ω→antiΩ       598       1  ok
	// Q→W           598       1  ok
	// ◇Q→◇W         598       1  ok
	// Ωk→antiΩ      598       1  ok
}
