package consensus_test

import (
	"fmt"
	"slices"

	"repro/internal/afd"
	"repro/internal/chaos"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/trace"
)

// executeRounds runs r with the chaos target id, a consensus:<fd>[@v] or
// smachine:<fd>[@v] ID, and returns the verdict and the highest round a
// process reached, which the hook reads off the built system once the
// schedule completes.
func executeRounds(id string, r chaos.Run) (chaos.Verdict, int, error) {
	target, err := chaos.ParseTarget(id)
	if err != nil {
		return chaos.Verdict{}, 0, err
	}
	r.Target = target
	var rounds int
	v, err := chaos.ExecuteInstrumented(r, func(b *chaos.Built) func() error {
		return func() error {
			rounds = consensus.MaxRound(b.Sys)
			return nil
		}
	})
	return v, rounds, err
}

// crashGate releases a run's crashes one every g events.
func crashGate(g int) chaos.GateSpec { return chaos.GateSpec{CrashAfter: g, CrashGap: g} }

// allDecided reports whether every live location of v's run decided: the
// run ended on the consensus targets' stop condition.
func allDecided(v chaos.Verdict) bool { return v.Reason == sched.StopCondition }

// value is the first decision of v's run, "" when there is none.
func value(v chaos.Verdict) string {
	if decs := consensus.Decisions(v.Trace); len(decs) > 0 {
		return decs[0].Payload
	}
	return ""
}

// composed builds a consensus system that no chaos target builds: the CT
// processes over family ("" runs them detector-free, the FLP control that
// DESIGN §2 keeps out of the registry), the channel mesh, envs, family's
// canonical automaton and a crash automaton for crash.  stop ends a run
// once every live location decided.
func composed(family string, envs []ioa.Automaton, crash ...ioa.Loc) (*ioa.System, func(*ioa.System, ioa.Action) bool) {
	n := len(envs)
	procs, err := consensus.Procs(n, family)
	if err != nil {
		panic(err)
	}
	autos := append(procs, system.Channels(n)...)
	autos = append(autos, envs...)
	if family != "" {
		d, err := afd.Lookup(family, n)
		if err != nil {
			panic(err)
		}
		autos = append(autos, d.Automaton(n))
	}
	stop, _ := system.StopWhenEach(n, 1, ioa.KindEnvOut, system.ActNameDecide)
	return ioa.MustNewSystem(append(autos, system.NewCrash(system.CrashOf(crash...)))...), stop
}

// Solving 1-crash-tolerant binary consensus with Ω: the full system of
// Figure 1 — consensus process automata, reliable FIFO channels, the
// consensus environment EC (Algorithm 4), the Ω detector (Algorithm 1) and
// the crash automaton — runs under a fair schedule with one crash, and its
// trace is checked against the Section-9.1 specification.
func ExampleRun() {
	v, rounds, err := executeRounds("consensus:FD-Ω@101", chaos.Run{ // proposals 1, 0, 1
		N:     3,
		Plan:  system.CrashOf(2), // location 2 will crash after proposing 1
		Gates: crashGate(40),     // release the crash mid-protocol
		Steps: 50_000,            // of the fair round-robin schedule
	})
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	decs := consensus.Decisions(v.Trace)
	fmt.Printf("ran %d events (%s)\n", v.Steps, v.Reason)
	fmt.Printf("decisions: %d, agreed value: %q, rounds used: %d\n", len(decs), value(v), rounds)
	for _, a := range decs {
		fmt.Printf("  %v\n", a)
	}
	if v.Failed() { // the §9.1 checker, with f = 1
		fmt.Println("specification violated:", v.Err)
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
		v, rounds, err := executeRounds("consensus:"+fam+"@00111", chaos.Run{
			N: n, Plan: system.CrashOf(0, 1), Gates: crashGate(25), Steps: 200_000,
		})
		if err != nil {
			fmt.Println(fam, "run:", err)
			return
		}
		if v.Failed() {
			fmt.Println(fam, "specification violated:", v.Err)
			return
		}
		msgs := trace.Count(v.Trace, func(a ioa.Action) bool { return a.Kind == ioa.KindSend })
		fmt.Printf("%-8s %-10d %-10d %-10d %s\n", fam, v.Steps, msgs, rounds, value(v))
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
// and the run decides (Section 9).  Both runs are round-robin.
func ExampleRun_flp() {
	bare, stop := composed("", system.ConsensusEnvsFixed([]int{0, 1, 1}), 0)
	res := sched.RoundRobin(bare, sched.Options{MaxSteps: 100_000, Stop: stop})
	fmt.Printf("no detector: %d decisions after %d steps (%s)\n",
		len(consensus.Decisions(bare.Trace())), res.Steps, res.Reason)
	with, _, err := executeRounds("consensus:FD-Ω@011", chaos.Run{N: 3, Plan: system.CrashOf(0), Steps: 100_000})
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Printf("with Ω:      %d decisions after %d steps (%s), value %q, all decided: %t\n",
		len(consensus.Decisions(with.Trace)), with.Steps, with.Reason, value(with), allDecided(with))
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
			// The target's default proposals are 0,1,0,1,….
			v, rounds, err := executeRounds("consensus:"+fam, chaos.Run{N: n, Steps: 400_000})
			if err != nil {
				fmt.Println(fam, "run:", err)
				return
			}
			msgs := trace.Count(v.Trace, func(a ioa.Action) bool { return a.Kind == ioa.KindSend })
			fmt.Printf("%-6s %2d %6d %5d %8d  %s\n", fam, n, v.Steps, msgs, rounds, verdict(v))
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
			v, rounds, err := executeRounds("consensus:"+fam+"@011", chaos.Run{
				N: 3, Plan: system.CrashOf(0), Gates: crashGate(gate), Steps: 400_000,
			})
			if err != nil {
				fmt.Println(fam, "run:", err)
				return
			}
			crash := slices.IndexFunc(v.Trace, func(a ioa.Action) bool { return a.Kind == ioa.KindCrash })
			fmt.Printf("%-6s %9d %5d %6d %8d  %s\n", fam, gate, crash, v.Steps, rounds, verdict(v))
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
// and the target's §9.1 checker, with f = ⌊(n−1)/2⌋, accepts the trace.
func verdict(v chaos.Verdict) string {
	if !allDecided(v) {
		return "NO-DECISION"
	}
	if v.Failed() {
		return "FAIL: " + v.Err.Error()
	}
	return "ok"
}
