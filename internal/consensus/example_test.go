package consensus_test

import (
	"fmt"

	"repro/internal/afd"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/trace"
)

// Solving 1-crash-tolerant binary consensus with Ω: the full system of
// Figure 1 — consensus process automata, reliable FIFO channels, the
// consensus environment EC (Algorithm 4), the Ω detector (Algorithm 1) and
// the crash automaton — runs under a fair schedule with one crash, and its
// trace is checked against the Section-9.1 specification.
func ExampleRun() {
	const n = 3
	omega, _ := afd.Lookup(afd.FamilyOmega, n)
	res, err := consensus.Run(consensus.RunSpec{
		Build: consensus.BuildSpec{
			N:      n,
			Family: afd.FamilyOmega,
			Det:    omega.Automaton(n),
			Crash:  []ioa.Loc{2},   // location 2 will crash...
			Values: []int{1, 0, 1}, // ...after proposing 1
		},
		Steps:     50_000,
		Seed:      -1, // fair round-robin schedule
		CrashGate: 40, // release the crash mid-protocol
	})
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Printf("ran %d events (%s)\n", res.Steps, res.Reason)
	fmt.Printf("decisions: %d, agreed value: %q, rounds used: %d\n",
		res.Decisions, res.Value, res.MaxRound)
	for _, a := range consensus.Decisions(res.Trace) {
		fmt.Printf("  %v\n", a)
	}
	spec := consensus.Spec{N: n, F: 1}
	if err := spec.Check(consensus.ProjectIO(res.Trace), res.AllDecided); err != nil {
		fmt.Println("specification violated:", err)
		return
	}
	fmt.Println("trace ∈ TP: environment well-formedness, crash validity, agreement, validity, termination all hold")
	// Output:
	// ran 48 events (condition)
	// decisions: 2, agreed value: "1", rounds used: 3
	//   decide(1)_0
	//   decide(1)_1
	// trace ∈ TP: environment well-formedness, crash validity, agreement, validity, termination all hold
}

// Consensus under crashes: the detector classes of Section 3.3 ride out
// the crash of the first two round coordinators.  P suspects at once and
// accurately; ◇P pays for its inaccurate prefix with extra rounds; Ω moves
// the leader.  The decision value and the specification hold throughout —
// only the cost differs.
func ExampleRun_detectorClasses() {
	const n = 5
	fmt.Printf("%-8s %-10s %-10s %-10s %s\n", "fd", "steps", "messages", "maxRound", "value")
	for _, fam := range []string{afd.FamilyP, afd.FamilyEvP, afd.FamilyEvS, afd.FamilyOmega} {
		d, _ := afd.Lookup(fam, n)
		res, err := consensus.Run(consensus.RunSpec{
			Build: consensus.BuildSpec{
				N:      n,
				Family: fam,
				Det:    d.Automaton(n),
				Crash:  []ioa.Loc{0, 1},
				Values: []int{0, 0, 1, 1, 1},
			},
			Steps:     200_000,
			Seed:      -1,
			CrashGate: 25,
		})
		if err != nil {
			fmt.Println(fam, "run:", err)
			return
		}
		spec := consensus.Spec{N: n, F: 2}
		if err := spec.Check(consensus.ProjectIO(res.Trace), true); err != nil {
			fmt.Println(fam, "specification violated:", err)
			return
		}
		msgs := trace.Count(res.Trace, func(a ioa.Action) bool { return a.Kind == ioa.KindSend })
		fmt.Printf("%-8s %-10d %-10d %-10d %s\n", fam, res.Steps, msgs, res.MaxRound, res.Value)
	}
	fmt.Println("all four detector classes preserve agreement, validity and termination")
	// Output:
	// fd       steps      messages   maxRound   value
	// FD-P     157        36         4          1
	// FD-◇P    230        61         8          1
	// FD-◇S    230        61         8          1
	// FD-Ω     159        37         5          1
	// all four detector classes preserve agreement, validity and termination
}

// The FLP control experiment: one consensus algorithm and one crash of the
// round-1 coordinator, run without a failure detector and with Ω.  Without
// one the processes wait forever for the dead coordinator, consistent with
// the impossibility of [11]; with Ω the leader moves off the dead location
// and the run decides (Section 9).
func ExampleRun_flp() {
	run := func(family string, det ioa.Automaton) *consensus.Result {
		res, err := consensus.Run(consensus.RunSpec{
			Build: consensus.BuildSpec{
				N:      3,
				Family: family,
				Det:    det,
				Crash:  []ioa.Loc{0},
				Values: []int{0, 1, 1},
			},
			Steps: 100_000,
			Seed:  -1,
		})
		if err != nil {
			fmt.Println("run:", err)
			return &consensus.Result{}
		}
		return res
	}
	bare := run("", nil)
	fmt.Printf("no detector: %d decisions after %d steps (%s)\n",
		bare.Decisions, bare.Steps, bare.Reason)
	omega, _ := afd.Lookup(afd.FamilyOmega, 3)
	with := run(afd.FamilyOmega, omega.Automaton(3))
	fmt.Printf("with Ω:      %d decisions after %d steps (%s), value %q, all decided: %t\n",
		with.Decisions, with.Steps, with.Reason, with.Value, with.AllDecided)
	// Output:
	// no detector: 0 decisions after 8 steps (quiescent)
	// with Ω:      2 decisions after 53 steps (condition), value "1", all decided: true
}
