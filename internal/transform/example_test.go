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
