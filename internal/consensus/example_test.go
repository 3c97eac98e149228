package consensus_test

import (
	"fmt"
	"slices"

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

// Consensus cost by detector and system size (EXPERIMENTS.md E7): the
// rotating-coordinator algorithm under P, ◇P, ◇S and Ω at n = 3, 5, 7 and
// 9, failure-free, with proposals 0,1,0,1,….  Every run decides and
// passes the §9.1 checker; P is never worse than the others, and ◇P and
// ◇S pay for their inaccurate prefix with rounds that grow with n.
func ExampleRun_cost() {
	fmt.Printf("%-6s %2s %6s %5s %8s  %s\n", "fd", "n", "steps", "msgs", "maxRound", "verdict")
	for _, fam := range []string{afd.FamilyP, afd.FamilyEvP, afd.FamilyEvS, afd.FamilyOmega} {
		for _, n := range []int{3, 5, 7, 9} {
			d, _ := afd.Lookup(fam, n)
			vals := make([]int, n)
			for i := range vals {
				vals[i] = i % 2
			}
			res, err := consensus.Run(consensus.RunSpec{
				Build: consensus.BuildSpec{N: n, Family: fam, Det: d.Automaton(n), Values: vals},
				Steps: 400_000,
				Seed:  -1,
			})
			if err != nil {
				fmt.Println(fam, "run:", err)
				return
			}
			msgs := trace.Count(res.Trace, func(a ioa.Action) bool { return a.Kind == ioa.KindSend })
			fmt.Printf("%-6s %2d %6d %5d %8d  %s\n", fam, n, res.Steps, msgs, res.MaxRound,
				verdict(res, consensus.Spec{N: n, F: (n - 1) / 2}))
		}
	}
	// Output:
	// fd      n  steps  msgs maxRound  verdict
	// FD-P    3     56    13        2  ok
	// FD-P    5    150    35        2  ok
	// FD-P    7    296    71        2  ok
	// FD-P    9    509   124        3  ok
	// FD-◇P   3    116    31        5  ok
	// FD-◇P   5    360    95        7  ok
	// FD-◇P   7    744   197        9  ok
	// FD-◇P   9   1292   340       12  ok
	// FD-◇S   3    116    31        5  ok
	// FD-◇S   5    360    95        7  ok
	// FD-◇S   7    744   197        9  ok
	// FD-◇S   9   1292   340       12  ok
	// FD-Ω    3     61    14        3  ok
	// FD-Ω    5    183    44        5  ok
	// FD-Ω    7    381    96        7  ok
	// FD-Ω    9    728   175       10  ok
}

// The coordinator-crash sweep (EXPERIMENTS.md E8): the round-1
// coordinator of a 3-location system crashes once the run has taken
// crashGate events; the crash column is the crash's index among the run's
// events, counting from 0, so every row shows that its crash happened.
// Crash timing moves the cost, never the outcome: every run decides and
// passes the §9.1 checker.
func ExampleRun_crashGate() {
	fmt.Printf("%-6s %9s %5s %6s %8s  %s\n", "fd", "crashGate", "crash", "steps", "maxRound", "verdict")
	for _, fam := range []string{afd.FamilyEvP, afd.FamilyOmega} {
		for _, gate := range []int{5, 20, 35, 50} {
			d, _ := afd.Lookup(fam, 3)
			res, err := consensus.Run(consensus.RunSpec{
				Build: consensus.BuildSpec{
					N: 3, Family: fam, Det: d.Automaton(3),
					Crash: []ioa.Loc{0}, Values: []int{0, 1, 1},
				},
				Steps:     400_000,
				Seed:      -1,
				CrashGate: gate,
			})
			if err != nil {
				fmt.Println(fam, "run:", err)
				return
			}
			crash := slices.IndexFunc(res.Trace, func(a ioa.Action) bool { return a.Kind == ioa.KindCrash })
			fmt.Printf("%-6s %9d %5d %6d %8d  %s\n", fam, gate, crash, res.Steps, res.MaxRound,
				verdict(res, consensus.Spec{N: 3, F: 1}))
		}
	}
	// Output:
	// fd     crashGate crash  steps maxRound  verdict
	// FD-◇P          5     6     71        5  ok
	// FD-◇P         20    22     75        5  ok
	// FD-◇P         35    38     81        5  ok
	// FD-◇P         50    52     87        5  ok
	// FD-Ω           5     6     53        3  ok
	// FD-Ω          20    25    104        6  ok
	// FD-Ω          35    41     58        3  ok
	// FD-Ω          50    55     61        3  ok
}

// verdict judges a finished run: "ok" when every live location decided
// and the trace satisfies spec.
func verdict(res *consensus.Result, spec consensus.Spec) string {
	if !res.AllDecided {
		return "NO-DECISION"
	}
	if err := spec.Check(consensus.ProjectIO(res.Trace), true); err != nil {
		return "FAIL: " + err.Error()
	}
	return "ok"
}
