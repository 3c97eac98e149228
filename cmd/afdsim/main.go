// Command afdsim runs a configurable simulation of the paper's systems:
// a failure detector on its own, a detector stacked with the Algorithm-3
// self-implementation, or the full Section-9.3 consensus system, under a
// chosen fault pattern and schedule, printing the trace and checker
// verdicts.
//
// Examples:
//
//	afdsim -mode detector -fd FD-Ω -n 4 -crash 3 -steps 200
//	afdsim -mode consensus -fd FD-◇P -n 5 -crash 0,1 -values 1,0,1,0,1
//	afdsim -mode selfimpl -fd FD-P -n 3 -crash 2 -json out.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/afd"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/problems"
	"repro/internal/sched"
	"repro/internal/selfimpl"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// tel is the process-wide telemetry sink; nil unless -telemetry.addr or
// -trace.out is given.  Modes that build their ioa.System directly
// (selfimpl, kset, nbac) thread it through every plane; detector and
// consensus delegate system construction to internal helpers, so for those
// the flags still provide live expvar+pprof but no per-plane metrics.
var tel telemetry.Sink

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "afdsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		mode     = flag.String("mode", "consensus", "detector | selfimpl | consensus | kset | nbac | live")
		family   = flag.String("fd", afd.FamilyOmega, "failure-detector family (see afdcheck -list)")
		n        = flag.Int("n", 3, "number of locations")
		crash    = flag.String("crash", "", "comma-separated locations to crash")
		gate     = flag.Int("gate", 30, "events before the first crash releases")
		steps    = flag.Int("steps", 20000, "step bound")
		seed     = flag.Int64("seed", -1, "random-schedule seed; -1 = fair round-robin")
		values   = flag.String("values", "", "comma-separated proposals/votes (consensus, kset, nbac); empty = free/yes")
		jsonOut  = flag.String("json", "", "write the trace as JSON to this file")
		verbose  = flag.Bool("v", false, "print every trace event")
		telFlags = telemetry.RegisterFlags(flag.CommandLine)

		liveMode     = flag.Bool("live", false, "run on the live runtime (real goroutines + transport); same as -mode live")
		liveTarget   = flag.String("target", "gossip:FD-◇Q>FD-◇P>FD-Ω", "live mode: chaos target ID")
		transport    = flag.String("transport", "chan", "live mode: chan | tcp")
		liveInterval = flag.Duration("live.interval", 100*time.Microsecond, "live mode: heartbeat interval")
		liveDuration = flag.Duration("live.duration", 30*time.Second, "live mode: wall-clock budget")
		artifactOut  = flag.String("artifact", "", "live mode: write the replayable trace.Artifact here")
	)
	flag.Parse()

	var flush func()
	var err error
	tel, flush, err = telFlags.Init()
	if err != nil {
		return err
	}
	defer flush()

	plan, err := parseLocs(*crash)
	if err != nil {
		return err
	}
	if *liveMode || *mode == "live" {
		// -steps 20000 is the simulated default; live mode sizes its step
		// bound from the target (chaos.DefaultSteps) unless overridden.
		liveSteps := 0
		if *steps != 20000 {
			liveSteps = *steps
		}
		liveSeed := *seed
		if liveSeed < 0 {
			liveSeed = 0
		}
		return runLive(*liveTarget, *n, plan, *transport, *liveInterval, *liveDuration,
			liveSteps, liveSeed, *artifactOut, *verbose)
	}
	switch *mode {
	case "detector":
		return runDetector(*family, *n, plan, *gate, *steps, *seed, *jsonOut, *verbose)
	case "selfimpl":
		return runSelfImpl(*family, *n, plan, *gate, *steps, *seed, *jsonOut, *verbose)
	case "consensus":
		return runConsensus(*family, *n, plan, *gate, *steps, *seed, *values, *jsonOut, *verbose)
	case "kset":
		return runKSet(*n, plan, *gate, *steps, *seed, *values, *jsonOut, *verbose)
	case "nbac":
		return runNBAC(*family, *n, plan, *gate, *steps, *seed, *values, *jsonOut, *verbose)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

func parseLocs(s string) ([]ioa.Loc, error) {
	if s == "" {
		return nil, nil
	}
	var out []ioa.Loc
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad location %q: %v", part, err)
		}
		out = append(out, ioa.Loc(v))
	}
	return out, nil
}

func parseVals(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func emit(tr trace.T, jsonOut string, verbose bool) error {
	if verbose {
		for i, a := range tr {
			fmt.Printf("%4d %v\n", i, a)
		}
	}
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		if err := trace.WriteJSON(f, tr); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d events)\n", jsonOut, len(tr))
	}
	return nil
}

func runDetector(family string, n int, plan []ioa.Loc, gate, steps int, seed int64, jsonOut string, verbose bool) error {
	d, err := afd.Lookup(family, n)
	if err != nil {
		return err
	}
	tr, err := afd.RunCanonical(d, afd.RunSpec{N: n, Crash: plan, Steps: steps, Seed: seed, CrashGate: gate})
	if err != nil {
		return err
	}
	fmt.Printf("detector %s: %d events, %d crashes\n", family, len(tr),
		trace.Count(tr, func(a ioa.Action) bool { return a.Kind == ioa.KindCrash }))
	if err := d.Check(tr, n, afd.DefaultWindow()); err != nil {
		fmt.Printf("checker: REJECTED: %v\n", err)
	} else {
		fmt.Printf("checker: trace ∈ T(%s)\n", family)
	}
	return emit(tr, jsonOut, verbose)
}

func runSelfImpl(family string, n int, plan []ioa.Loc, gate, steps int, seed int64, jsonOut string, verbose bool) error {
	d, err := afd.Lookup(family, n)
	if err != nil {
		return err
	}
	ren := selfimpl.Renaming{From: family, To: family + "'"}
	autos := []ioa.Automaton{d.Automaton(n)}
	autos = append(autos, selfimpl.NewCollection(n, ren)...)
	autos = append(autos, system.NewCrash(system.CrashOf(plan...)))
	sys, err := ioa.NewSystem(autos...)
	if err != nil {
		return err
	}
	opts := sched.Options{MaxSteps: steps, Telemetry: tel}
	if gate > 0 {
		opts.Gate = sched.CrashesAfter(gate, gate)
	}
	system.Instrument(sys, tel)
	if seed >= 0 {
		sched.Random(sys, seed, opts)
	} else {
		sched.RoundRobin(sys, opts)
	}
	full := sys.Trace()
	mixed := trace.Project(full, func(a ioa.Action) bool {
		return a.Kind == ioa.KindCrash ||
			(a.Kind == ioa.KindFD && (a.Name == ren.From || a.Name == ren.To))
	})
	rep, err := selfimpl.VerifyProof(mixed, n, ren)
	if err != nil {
		return fmt.Errorf("Section-6 proof pipeline failed: %w", err)
	}
	fmt.Printf("selfimpl %s→%s: %d source events relayed (Lemmas 2, 6, 9 verified)\n",
		ren.From, ren.To, len(rep.REV))
	back := ren.InvertTrace(trace.FD(full, ren.To))
	if err := d.Check(back, n, afd.DefaultWindow()); err != nil {
		fmt.Printf("checker: renamed trace REJECTED: %v\n", err)
	} else {
		fmt.Printf("checker: renamed trace ∈ T(%s) — Theorem 13 holds on this run\n", family)
	}
	return emit(mixed, jsonOut, verbose)
}

func runConsensus(family string, n int, plan []ioa.Loc, gate, steps int, seed int64, values, jsonOut string, verbose bool) error {
	vals, err := parseVals(values)
	if err != nil {
		return err
	}
	var det ioa.Automaton
	if family != "" {
		d, err := afd.Lookup(family, n)
		if err != nil {
			return err
		}
		det = d.Automaton(n)
	}
	res, err := consensus.Run(consensus.RunSpec{
		Build:     consensus.BuildSpec{N: n, Family: family, Det: det, Crash: plan, Values: vals},
		Steps:     steps,
		Seed:      seed,
		CrashGate: gate,
	})
	if err != nil {
		return err
	}
	fmt.Printf("consensus n=%d fd=%s crash=%v: %d steps (%s), %d decisions, value=%q, max round %d\n",
		n, family, plan, res.Steps, res.Reason, res.Decisions, res.Value, res.MaxRound)
	spec := consensus.Spec{N: n, F: (n - 1) / 2}
	io := consensus.ProjectIO(res.Trace)
	if err := spec.Check(io, res.AllDecided); err != nil {
		fmt.Printf("checker: REJECTED: %v\n", err)
	} else {
		fmt.Printf("checker: trace ∈ TP (Section 9.1)\n")
	}
	return emit(res.Trace, jsonOut, verbose)
}

func runKSet(n int, plan []ioa.Loc, gate, steps int, seed int64, values, jsonOut string, verbose bool) error {
	vals, err := parseVals(values)
	if err != nil {
		return err
	}
	if vals == nil {
		vals = make([]int, n)
		for i := range vals {
			vals[i] = i % 2
		}
	}
	if len(vals) != n {
		return fmt.Errorf("%d values for %d locations", len(vals), n)
	}
	f := len(plan)
	autos := problems.KSetProcs(n, f)
	autos = append(autos, system.Channels(n)...)
	autos = append(autos, system.ConsensusEnvsFixed(vals)...)
	autos = append(autos, system.NewCrash(system.CrashOf(plan...)))
	sys, err := ioa.NewSystem(autos...)
	if err != nil {
		return err
	}
	opts := sched.Options{MaxSteps: steps, Telemetry: tel}
	if gate > 0 {
		opts.Gate = sched.CrashesAfter(gate, gate)
	}
	system.Instrument(sys, tel)
	if seed >= 0 {
		sched.Random(sys, seed, opts)
	} else {
		sched.RoundRobin(sys, opts)
	}
	decs := consensus.Decisions(sys.Trace())
	distinct := make(map[string]bool)
	for _, d := range decs {
		distinct[d.Payload] = true
	}
	fmt.Printf("kset n=%d f=%d: %d decisions, %d distinct values (bound %d)\n",
		n, f, len(decs), len(distinct), f+1)
	spec := problems.KSetAgreement{N: n, K: f + 1}
	if err := spec.Check(consensus.ProjectIO(sys.Trace()), false); err != nil {
		fmt.Printf("checker: REJECTED: %v\n", err)
	} else {
		fmt.Println("checker: trace ∈ T(k-set agreement)")
	}
	return emit(sys.Trace(), jsonOut, verbose)
}

func runNBAC(family string, n int, plan []ioa.Loc, gate, steps int, seed int64, values, jsonOut string, verbose bool) error {
	if family == "" || family == "FD-Ω" {
		family = "FD-P"
	}
	votes := make([]string, n)
	for i := range votes {
		votes[i] = problems.VoteYes
	}
	if values != "" {
		vals, err := parseVals(values)
		if err != nil {
			return err
		}
		if len(vals) != n {
			return fmt.Errorf("%d votes for %d locations", len(vals), n)
		}
		for i, v := range vals {
			if v == 0 {
				votes[i] = problems.VoteNo
			}
		}
	}
	procs, err := problems.NBACProcs(n, family)
	if err != nil {
		return err
	}
	d, err := afd.Lookup(family, n)
	if err != nil {
		return err
	}
	autos := procs
	autos = append(autos, system.Channels(n)...)
	autos = append(autos, problems.VoterEnvs(votes)...)
	autos = append(autos, d.Automaton(n))
	autos = append(autos, system.NewCrash(system.CrashOf(plan...)))
	sys, err := ioa.NewSystem(autos...)
	if err != nil {
		return err
	}
	opts := sched.Options{MaxSteps: steps, Telemetry: tel}
	if gate > 0 {
		opts.Gate = sched.CrashesAfter(gate, gate)
	}
	outcomes := 0
	opts.Stop = func(_ *ioa.System, last ioa.Action) bool {
		if last.Kind == ioa.KindEnvOut && last.Name == problems.ActNameOutcome {
			outcomes++
		}
		return outcomes >= n-len(plan)
	}
	system.Instrument(sys, tel)
	if seed >= 0 {
		sched.Random(sys, seed, opts)
	} else {
		sched.RoundRobin(sys, opts)
	}
	var outcome string
	for _, a := range sys.Trace() {
		if a.Kind == ioa.KindEnvOut && a.Name == problems.ActNameOutcome {
			outcome = a.Payload
			break
		}
	}
	fmt.Printf("nbac n=%d fd=%s votes=%v crash=%v: %d outcomes, result=%q\n",
		n, family, votes, plan, outcomes, outcome)
	return emit(sys.Trace(), jsonOut, verbose)
}
