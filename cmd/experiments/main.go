// Command experiments regenerates every experiment table in EXPERIMENTS.md
// (E1–E19 of DESIGN.md).  All runs are seeded and deterministic.
//
// Usage:
//
//	experiments            # run everything
//	experiments -only E7   # run one experiment
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/afd"
	"repro/internal/causal"
	"repro/internal/chaos"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/problems"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/valence"
)

var (
	e10MaxHooks = flag.Int("maxhooks", 200, "hook-search cap in E10-E11 (0 = all)")
	e10Workers  = flag.Int("workers", 0, "exploration workers in E10-E11 and E18 (0 = GOMAXPROCS)")
	e10Por      = flag.Bool("por", false, "run E10-E11 with dynamic partial-order reduction (E18 always reduces)")
	e18MaxNodes = flag.Int("e18.maxnodes", 1_500_000, "node cap for the n=4 rows of E18")
	telFlags    = telemetry.RegisterFlags(flag.CommandLine)

	// tel is nil unless -telemetry.addr or -trace.out is given; every
	// instrumentation site nil-checks it, so plain runs pay nothing.
	tel telemetry.Sink
)

func main() {
	only := flag.String("only", "", "run a single experiment (e.g. E7)")
	flag.Parse()
	var flush func()
	var err error
	tel, flush, err = telFlags.Init()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer flush()
	type exp struct {
		id   string
		name string
		fn   func() error
	}
	exps := []exp{
		{"E1", "system throughput (Figure 1 composition)", e1Throughput},
		{"E2-E4", "detector zoo: generation + membership + closure", e2DetectorZoo},
		{"E5", "self-implementability overhead (Algorithm 3 / Theorem 13)", e5SelfImpl},
		{"E6", "reduction hierarchy (Theorems 15/16)", e6Transforms},
		{"E7", "consensus cost by detector and n (Section 9)", e7Consensus},
		{"E8", "coordinator-crash sweep", e8CrashSweep},
		{"E9", "FLP control: no detector vs Ω", e9FLP},
		{"E10-E11", "execution-tree valence + hooks (Sections 8, 9.6)", e10Valence},
		{"E12", "bounded problems: k-set without detectors, NBAC with P (Section 7.3)", e12Bounded},
		{"E13", "query-based participant detector (Section 10.1)", e13Participant},
		{"E14", "trace-calculus checker throughput", e14Checkers},
		{"E15", "long-lived ◇-mutex over ◇P (Lemma 20 contrast to Theorem 21)", e15Mutex},
		{"E16", "broadcast problems: URB (§1.1) and TRB (§7.3)", e16Broadcast},
		{"E17", "property survival under adversarial networks (relaxed §2.3 channels)", e17Survey},
		{"E18", "partial-order reduction: pruning ratio and the n=4 hook search", e18PORHooks},
		{"E19", "detector QoS vs drop rate and topology (causal analytics)", e19QoS},
	}
	failed := 0
	for _, e := range exps {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", e.id, e.name)
		if err := e.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.id, err)
			failed++
		}
	}
	if failed > 0 {
		flush() // os.Exit skips the deferred flush
		os.Exit(1)
	}
}

func e1Throughput() error {
	fmt.Printf("%-6s %-12s %-12s\n", "n", "events", "events/sec")
	for _, n := range []int{4, 8, 16, 32} {
		d, err := afd.Lookup(afd.FamilyP, n)
		if err != nil {
			return err
		}
		autos := []ioa.Automaton{d.Automaton(n)}
		autos = append(autos, system.Channels(n)...)
		autos = append(autos, system.NewCrash(system.NoFaults()))
		sys, err := ioa.NewSystem(autos...)
		if err != nil {
			return err
		}
		const steps = 100_000
		opts := sched.Options{MaxSteps: steps, Telemetry: tel}
		system.Instrument(sys, tel)
		start := time.Now()
		sched.RoundRobin(sys, opts)
		el := time.Since(start)
		fmt.Printf("%-6d %-12d %-12.0f\n", n, sys.Steps(), float64(sys.Steps())/el.Seconds())
	}
	return nil
}

func e2DetectorZoo() error {
	const n = 4
	w := afd.DefaultWindow()
	fmt.Printf("%-10s %-8s %-10s %-10s %-10s\n", "family", "events", "member", "sampling", "reorder")
	for _, fam := range afd.Families(n) {
		d, _ := afd.Lookup(fam, n)
		tr, err := afd.RunCanonical(d, afd.RunSpec{
			N: n, Crash: []ioa.Loc{3}, Steps: 240, Seed: -1, CrashGate: 60,
		})
		if err != nil {
			return err
		}
		member := verdict(d.Check(tr, n, w))
		samp := verdict(afd.CheckClosureUnderSampling(d, tr, n, w, 10, 1))
		reord := verdict(afd.CheckClosureUnderReordering(d, tr, n, w, 10, 1))
		fmt.Printf("%-10s %-8d %-10s %-10s %-10s\n", fam, len(tr), member, samp, reord)
	}
	return nil
}

func e5SelfImpl() error {
	const n = 4
	fmt.Printf("%-10s %-10s %-10s %-10s\n", "family", "relayed", "events", "verdict")
	for _, fam := range []string{afd.FamilyP, afd.FamilyOmega, afd.FamilySigma, afd.FamilyEvP} {
		target, sys, err := build("selfimpl:"+fam, n, 3)
		if err != nil {
			return err
		}
		opts := sched.Options{MaxSteps: 800, Gate: sched.CrashesAfter(200, 0), Telemetry: tel}
		system.Instrument(sys, tel)
		sched.RoundRobin(sys, opts)
		tr := sys.Trace()
		relayed := trace.Count(tr, func(a ioa.Action) bool { return a.Kind == ioa.KindFD && a.Name == fam+"'" })
		v := verdict(target.Checker(n, system.CrashOf(3), true)(tr))
		fmt.Printf("%-10s %-10d %-10d %-10s\n", fam, relayed, len(tr), v)
	}
	return nil
}

// build composes the system of a registered chaos target through
// chaos.Run.Build; each experiment drives its own schedule on it.
func build(id string, n int, crash ...ioa.Loc) (chaos.Target, *ioa.System, error) {
	target, err := chaos.ParseTarget(id)
	if err != nil {
		return nil, nil, err
	}
	b, _, err := chaos.Run{Target: target, N: n, Plan: system.CrashOf(crash...)}.Build()
	if err != nil {
		return nil, nil, err
	}
	return target, b.Sys, nil
}

func e6Transforms() error {
	const n = 4
	w := afd.DefaultWindow()
	fmt.Printf("%-12s %-10s %-10s %-10s\n", "reduction", "outEvents", "crashes", "verdict")
	for _, l := range transform.Catalog() {
		src, err := afd.Lookup(l.From, n)
		if err != nil {
			return err
		}
		tgt, err := afd.Lookup(l.To, n)
		if err != nil {
			return err
		}
		tr, err := transform.Run(src, l.Procs(n), l.To, transform.RunSpec{
			N: n, Crash: []ioa.Loc{3}, Seed: -1, Steps: 1200, CrashGate: 200,
		})
		if err != nil {
			return err
		}
		outs := trace.Count(tr, afd.IsOutput(l.To))
		fmt.Printf("%-12s %-10d %-10d %-10s\n", l.Name, outs, len(tr)-outs, verdict(tgt.Check(tr, n, w)))
	}
	return nil
}

func e7Consensus() error {
	fmt.Printf("%-8s %-6s %-10s %-10s %-10s %-10s\n", "fd", "n", "steps", "msgs", "maxRound", "verdict")
	for _, fam := range []string{afd.FamilyP, afd.FamilyEvP, afd.FamilyEvS, afd.FamilyOmega} {
		for _, n := range []int{3, 5, 7, 9} {
			d, err := afd.Lookup(fam, n)
			if err != nil {
				return err
			}
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
				return err
			}
			msgs := trace.Count(res.Trace, func(a ioa.Action) bool { return a.Kind == ioa.KindSend })
			spec := consensus.Spec{N: n, F: (n - 1) / 2}
			v := verdict(spec.Check(consensus.ProjectIO(res.Trace), res.AllDecided))
			if !res.AllDecided {
				v = "NO-DECISION"
			}
			fmt.Printf("%-8s %-6d %-10d %-10d %-10d %-10s\n", fam, n, res.Steps, msgs, res.MaxRound, v)
		}
	}
	return nil
}

func e8CrashSweep() error {
	const n = 3
	fmt.Printf("%-8s %-10s %-10s %-10s %-10s\n", "fd", "crashGate", "steps", "maxRound", "verdict")
	for _, fam := range []string{afd.FamilyEvP, afd.FamilyOmega} {
		for _, gate := range []int{5, 20, 50, 150, 400} {
			d, err := afd.Lookup(fam, n)
			if err != nil {
				return err
			}
			res, err := consensus.Run(consensus.RunSpec{
				Build: consensus.BuildSpec{
					N: n, Family: fam, Det: d.Automaton(n),
					Crash: []ioa.Loc{0}, Values: []int{0, 1, 1},
				},
				Steps:     400_000,
				Seed:      -1,
				CrashGate: gate,
			})
			if err != nil {
				return err
			}
			spec := consensus.Spec{N: n, F: 1}
			v := verdict(spec.Check(consensus.ProjectIO(res.Trace), res.AllDecided))
			if !res.AllDecided {
				v = "NO-DECISION"
			}
			fmt.Printf("%-8s %-10d %-10d %-10d %-10s\n", fam, gate, res.Steps, res.MaxRound, v)
		}
	}
	return nil
}

func e9FLP() error {
	fmt.Printf("%-14s %-12s %-10s %-10s\n", "detector", "decisions", "steps", "reason")
	// Without a detector, a single early coordinator crash stalls the run.
	res, err := consensus.Run(consensus.RunSpec{
		Build: consensus.BuildSpec{N: 3, Family: "", Crash: []ioa.Loc{0}, Values: []int{0, 1, 1}},
		Steps: 100_000,
		Seed:  -1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-12d %-10d %-10s\n", "(none)", res.Decisions, res.Steps, res.Reason)
	// With Ω the same scenario decides.
	d, err := afd.Lookup(afd.FamilyOmega, 3)
	if err != nil {
		return err
	}
	res, err = consensus.Run(consensus.RunSpec{
		Build: consensus.BuildSpec{
			N: 3, Family: afd.FamilyOmega, Det: d.Automaton(3),
			Crash: []ioa.Loc{0}, Values: []int{0, 1, 1},
		},
		Steps: 100_000,
		Seed:  -1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-12d %-10d %-10s\n", afd.FamilyOmega, res.Decisions, res.Steps, res.Reason)
	return nil
}

func e10Valence() error {
	fmt.Printf("%-24s %-10s %-10s %-10s %-8s %-8s %-10s %-10s\n",
		"config", "nodes", "edges", "bivalent", "hooks", "critLoc", "knodes/s", "verdict")
	configs := []struct {
		name string
		cfg  valence.Config
	}{
		{"n=2 free", valence.Config{
			N: 2, Family: afd.FamilyOmega, TD: valence.OmegaTD(2, 6, nil),
		}},
		{"n=2 free, short tD", valence.Config{
			N: 2, Family: afd.FamilyOmega, TD: valence.OmegaTD(2, 3, nil),
		}},
		{"n=2 S-algo, crash 1", valence.Config{
			N: 2, Family: afd.FamilyP, Algo: "s",
			TD: valence.PerfectTD(2, 4, map[ioa.Loc]int{1: 1}),
		}},
		{"n=3 S-algo, crash 2", valence.Config{
			N: 3, Family: afd.FamilyP, Algo: "s",
			TD:     valence.PerfectTD(3, 2, map[ioa.Loc]int{2: 1}),
			Values: []int{-1, 1, 1}, MaxNodes: 1_500_000,
		}},
	}
	for _, c := range configs {
		cfg := c.cfg
		cfg.Workers = *e10Workers
		cfg.Reduce = *e10Por
		cfg.Telemetry = tel
		e, err := valence.New(cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := e.Explore(); err != nil {
			// A cap overflow is a property of the configuration, not a
			// harness failure: report the partial count and keep going.
			var capErr *valence.ErrStateSpaceCap
			if errors.As(err, &capErr) {
				fmt.Printf("%-24s %-10d %-10s %-10s %-8s %-8s %-10s %-10s\n",
					c.name, capErr.Nodes, "-", "-", "-", "-", "-",
					fmt.Sprintf("CAP>%d", capErr.Cap))
				continue
			}
			return err
		}
		elapsed := time.Since(start)
		st := e.Stats()
		hooks := e.FindHooks(*e10MaxHooks)
		verd := "ok"
		critLive := true
		for _, h := range hooks {
			if err := e.VerifyHook(h); err != nil {
				verd = "FAIL"
				critLive = false
				break
			}
		}
		if err := e.CheckLemma52(); err != nil {
			verd = "FAIL(L52)"
		}
		if err := e.CheckProposition50(); err != nil {
			verd = "FAIL(P50)"
		}
		if st.Unknown > 0 || e.Valence(e.Root()) != valence.ValBivalent || len(hooks) == 0 {
			verd = "FAIL"
		}
		crit := "live"
		if !critLive {
			crit = "DEAD"
		}
		fmt.Printf("%-24s %-10d %-10d %-10d %-8d %-8s %-10.1f %-10s\n",
			c.name, st.Nodes, st.Edges, st.Bivalent, len(hooks), crit,
			float64(st.Nodes)/elapsed.Seconds()/1000, verd)
	}
	return nil
}

func e14Checkers() error {
	const n = 4
	fmt.Printf("%-10s %-10s %-14s\n", "family", "events", "checks/sec")
	for _, fam := range []string{afd.FamilyP, afd.FamilyOmega, afd.FamilySigma} {
		d, _ := afd.Lookup(fam, n)
		tr, err := afd.RunCanonical(d, afd.RunSpec{N: n, Crash: []ioa.Loc{3}, Steps: 2000, Seed: -1, CrashGate: 500})
		if err != nil {
			return err
		}
		start := time.Now()
		const reps = 200
		for i := 0; i < reps; i++ {
			if err := d.Check(tr, n, afd.DefaultWindow()); err != nil {
				return err
			}
		}
		el := time.Since(start)
		fmt.Printf("%-10s %-10d %-14.0f\n", fam, len(tr), reps/el.Seconds())
	}
	return nil
}

func e12Bounded() error {
	// Detector-free k-set agreement: f < k is solvable asynchronously.
	fmt.Printf("%-22s %-8s %-10s %-10s %-10s\n", "problem", "n", "crashes", "distinct", "verdict")
	for _, tc := range []struct {
		n, f  int
		crash []ioa.Loc
	}{
		{3, 1, nil},
		{3, 1, []ioa.Loc{2}},
		{5, 2, []ioa.Loc{0, 4}},
	} {
		_, sys, err := build("kset", tc.n, tc.crash...)
		if err != nil {
			return err
		}
		opts := sched.Options{MaxSteps: 50_000, Gate: sched.CrashesAfter(20, 20), Telemetry: tel}
		system.Instrument(sys, tel)
		sched.RoundRobin(sys, opts)
		distinct := make(map[string]bool)
		for _, a := range consensus.Decisions(sys.Trace()) {
			distinct[a.Payload] = true
		}
		spec := problems.KSetAgreement{N: tc.n, K: tc.f + 1}
		v := verdict(spec.Check(consensus.ProjectIO(sys.Trace()), false))
		fmt.Printf("%-22s %-8d %-10d %-10d %-10s\n",
			fmt.Sprintf("(f+1)-set, f=%d", tc.f), tc.n, len(tc.crash), len(distinct), v)
	}
	// NBAC with P.
	for _, tc := range []struct {
		votes []string
		crash []ioa.Loc
		want  string
	}{
		{[]string{problems.VoteYes, problems.VoteYes, problems.VoteYes}, nil, problems.OutcomeCommit},
		{[]string{problems.VoteYes, problems.VoteNo, problems.VoteYes}, nil, problems.OutcomeAbort},
		{[]string{problems.VoteYes, problems.VoteYes, problems.VoteYes}, []ioa.Loc{2}, problems.OutcomeAbort},
	} {
		id := "nbac@"
		for _, v := range tc.votes {
			if v == problems.VoteYes {
				id += "1"
			} else {
				id += "0"
			}
		}
		_, sys, err := build(id, 3, tc.crash...)
		if err != nil {
			return err
		}
		sched.RoundRobin(sys, sched.Options{MaxSteps: 100_000, Gate: sched.CrashesAfter(5, 5)})
		outcome := "(none)"
		for _, a := range sys.Trace() {
			if a.Kind == ioa.KindEnvOut && a.Name == problems.ActNameOutcome {
				outcome = a.Payload
				break
			}
		}
		v := "ok"
		if outcome != tc.want {
			v = "FAIL"
		}
		fmt.Printf("%-22s %-8d %-10d %-10s %-10s\n",
			"NBAC(P) votes="+strings.Join(tc.votes, ","), 3, len(tc.crash), outcome, v)
	}
	return nil
}

func e13Participant() error {
	fmt.Printf("%-26s %-12s %-10s\n", "reduction", "events", "verdict")
	// Consensus from the participant oracle.
	{
		_, sys, err := build("participant:consensus@101", 3)
		if err != nil {
			return err
		}
		sched.RoundRobin(sys, sched.Options{MaxSteps: 10_000})
		v := verdict(problems.CheckParticipant(sys.Trace()))
		if len(consensus.Decisions(sys.Trace())) != 3 {
			v = "FAIL"
		}
		fmt.Printf("%-26s %-12d %-10s\n", "participant → consensus", sys.Steps(), v)
	}
	// Participant answers from a hosted consensus.
	{
		_, sys, err := build("participant:via-consensus", 3)
		if err != nil {
			return err
		}
		answers := 0
		sched.RoundRobin(sys, sched.Options{
			MaxSteps: 20_000,
			Stop: func(_ *ioa.System, last ioa.Action) bool {
				if last.Kind == ioa.KindFD && last.Name == problems.FamilyParticipant {
					answers++
				}
				return answers == 6 // 2 queries × 3 locations
			},
		})
		v := verdict(problems.CheckParticipant(sys.Trace()))
		if answers != 6 {
			v = "FAIL"
		}
		fmt.Printf("%-26s %-12d %-10s\n", "consensus → participant", sys.Steps(), v)
	}
	return nil
}

func e15Mutex() error {
	fmt.Printf("%-8s %-8s %-10s %-12s %-12s %-10s\n", "fd", "crash", "enters", "violations", "suffix-ok", "verdict")
	for _, tc := range []struct {
		fam   string
		crash []ioa.Loc
	}{
		{afd.FamilyP, nil},
		{afd.FamilyP, []ioa.Loc{1}},
		{afd.FamilyEvP, nil},
		{afd.FamilyEvP, []ioa.Loc{2}},
	} {
		_, sys, err := build("mutex:"+tc.fam, 3, tc.crash...)
		if err != nil {
			return err
		}
		sched.RoundRobin(sys, sched.Options{MaxSteps: 6000, Gate: sched.CrashesAfter(60, 60)})
		tr := trace.Project(sys.Trace(), func(a ioa.Action) bool {
			return a.Kind == ioa.KindCrash ||
				(a.Kind == ioa.KindEnvOut && (a.Name == problems.ActNameEnter || a.Name == problems.ActNameExit))
		})
		enters := 0
		for _, c := range problems.MutexRounds(tr) {
			enters += c
		}
		viol := problems.MutexExclusionViolations(tr)
		v := verdict((problems.MutexSpec{N: 3, Window: 2}).Check(tr))
		fmt.Printf("%-8s %-8d %-10d %-12d %-12s %-10s\n",
			tc.fam, len(tc.crash), enters, viol, "yes", v)
	}
	return nil
}

func e16Broadcast() error {
	fmt.Printf("%-22s %-6s %-10s %-10s %-10s\n", "algorithm", "n", "crashes", "delivers", "verdict")
	// URB: detector-free majority diffusion vs P-based.
	for _, tc := range []struct {
		name, target string
		n            int
		crash        []ioa.Loc
	}{
		{"URB majority (no FD)", "urb:majority", 3, []ioa.Loc{2}},
		{"URB majority (no FD)", "urb:majority", 5, []ioa.Loc{0, 4}},
		{"URB over P", "urb:P", 3, []ioa.Loc{0, 1}},
		{"URB over P", "urb:P", 4, []ioa.Loc{1, 2, 3}},
	} {
		_, sys, err := build(tc.target, tc.n, tc.crash...)
		if err != nil {
			return err
		}
		opts := sched.Options{MaxSteps: 30_000, Gate: sched.CrashesAfter(20, 20), Telemetry: tel}
		system.Instrument(sys, tel)
		sched.RoundRobin(sys, opts)
		delivers := trace.Count(sys.Trace(), func(a ioa.Action) bool {
			return a.Kind == ioa.KindEnvOut && a.Name == problems.ActNameDeliver
		})
		urbTrace := trace.Project(sys.Trace(), func(a ioa.Action) bool {
			return a.Kind == ioa.KindCrash ||
				(a.Kind == ioa.KindEnvIn && a.Name == problems.ActNameBroadcast) ||
				(a.Kind == ioa.KindEnvOut && a.Name == problems.ActNameDeliver)
		})
		v := verdict((problems.URBSpec{N: tc.n}).Check(urbTrace, true))
		fmt.Printf("%-22s %-6d %-10d %-10d %-10s\n", tc.name, tc.n, len(tc.crash), delivers, v)
	}
	// TRB: live sender vs crashing sender.
	for _, tc := range []struct {
		name  string
		crash []ioa.Loc
		gate  int
	}{
		{"TRB over P, live", nil, 0},
		{"TRB over P, s crashes", []ioa.Loc{0}, 10},
	} {
		_, sys, err := build("trb", 3, tc.crash...)
		if err != nil {
			return err
		}
		opts := sched.Options{MaxSteps: 60_000, Telemetry: tel}
		if tc.gate > 0 {
			opts.Gate = sched.CrashesAfter(tc.gate, tc.gate)
		}
		system.Instrument(sys, tel)
		sched.RoundRobin(sys, opts)
		delivers := trace.Count(sys.Trace(), func(a ioa.Action) bool {
			return a.Kind == ioa.KindEnvOut && a.Name == problems.ActNameTRBDeliver
		})
		trb := trace.Project(sys.Trace(), func(a ioa.Action) bool {
			return a.Kind == ioa.KindCrash ||
				(a.Kind == ioa.KindEnvIn && a.Name == problems.ActNameTRBBcast) ||
				(a.Kind == ioa.KindEnvOut && a.Name == problems.ActNameTRBDeliver)
		})
		v := verdict((problems.TRBSpec{N: 3, Sender: 0}).Check(trb, true))
		fmt.Printf("%-22s %-6d %-10d %-10d %-10s\n", tc.name, 3, len(tc.crash), delivers, v)
	}
	return nil
}

// e18PORHooks measures what dynamic partial-order reduction buys.  The n=3
// S-algorithm configuration is explored full and reduced — identical hook
// reports, with the measured node ratio — and then the reduced explorer
// attempts the n=4 S-algorithm hook search, which is far beyond any
// practical cap without reduction.  A CAP row is an honest outcome, not a
// failure: it bounds how far the pruned frontier reaches under -e18.maxnodes.
func e18PORHooks() error {
	fmt.Printf("%-22s %-8s %-11s %-11s %-11s %-8s %-8s %-10s\n",
		"config", "reduce", "nodes", "edges", "pruned", "ratio", "hooks", "verdict")
	n3 := valence.Config{N: 3, Family: afd.FamilyP, Algo: "s",
		TD:     valence.PerfectTD(3, 2, map[ioa.Loc]int{2: 1}),
		Values: []int{-1, 1, 1}, MaxNodes: 1_500_000}
	n4 := valence.Config{N: 4, Family: afd.FamilyP, Algo: "s",
		TD:     valence.PerfectTD(4, 2, map[ioa.Loc]int{3: 1}),
		Values: []int{-1, 1, 1, 1}, MaxNodes: *e18MaxNodes}
	rows := []struct {
		name   string
		reduce bool
		cfg    valence.Config
	}{
		{"n=3 S-algo, crash 2", false, n3},
		{"n=3 S-algo, crash 2", true, n3},
		{"n=4 S-algo, crash 3", false, n4},
		{"n=4 S-algo, crash 3", true, n4},
	}
	fullNodes := 0
	for _, r := range rows {
		cfg := r.cfg
		cfg.Reduce = r.reduce
		cfg.Workers = *e10Workers
		cfg.Telemetry = tel
		e, err := valence.New(cfg)
		if err != nil {
			return err
		}
		onoff := "off"
		if r.reduce {
			onoff = "on"
		}
		if err := e.Explore(); err != nil {
			var capErr *valence.ErrStateSpaceCap
			if errors.As(err, &capErr) {
				fmt.Printf("%-22s %-8s %-11d %-11s %-11s %-8s %-8s %-10s\n",
					r.name, onoff, capErr.Nodes, "-", "-", "-", "-",
					fmt.Sprintf("CAP>%d", capErr.Cap))
				continue
			}
			return err
		}
		st := e.Stats()
		if !r.reduce {
			fullNodes = st.Nodes
		}
		ratio := "-"
		if r.reduce && r.cfg.N == 3 && fullNodes > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(fullNodes)/float64(st.Nodes))
		}
		hooks := e.FindHooks(*e10MaxHooks)
		verd := "ok"
		for _, h := range hooks {
			if err := e.VerifyHook(h); err != nil {
				verd = "FAIL"
				break
			}
		}
		if err := e.CheckLemma52(); err != nil {
			verd = "FAIL(L52)"
		}
		if err := e.CheckProposition50(); err != nil {
			verd = "FAIL(P50)"
		}
		if st.Poisoned != 0 {
			verd = "POISON"
		}
		fmt.Printf("%-22s %-8s %-11d %-11d %-11d %-8s %-8d %-10s\n",
			r.name, onoff, st.Nodes, st.Edges, st.PrunedSteps, ratio, len(hooks), verd)
	}
	return nil
}

// e19QoS measures the detector quality-of-service of the gossip ◇Q>◇P
// stack across the E19 grid: per-link drop rate × topology at n=4, plus a
// reliable-full-mesh size sweep.  Each cell aggregates several seeded
// randomized runs; the figures are the causal package's analytics —
// detection latency (crash → permanent suspicion per observer),
// propagation spread (first to last observer), and mistake rate — over the
// boosted ◇P outputs.
func e19QoS() error {
	const reps = 3
	target, err := chaos.ParseTarget("gossip:" + afd.FamilyEvQ + ">" + afd.FamilyEvP)
	if err != nil {
		return err
	}
	// A spec-failing run is a data point, not an infrastructure error: heavy
	// loss legitimately costs plain gossip strong completeness (the E17
	// survey's finding), and the QoS figures of the surviving detections are
	// exactly what E19 plots.  Only Execute errors abort.
	cell := func(n int, topoName string, drop int) (causal.Summary, int, error) {
		var all []causal.Stats
		violations := 0
		for r := 0; r < reps; r++ {
			topo, err := system.ParseTopology(n, topoName)
			if err != nil {
				return causal.Summary{}, 0, err
			}
			net := system.NetSpec{Topo: topo, Drop: drop}
			if net.Lossy() {
				net.Seed = int64(r + 1)
			}
			v, err := chaos.Execute(chaos.Run{
				Target: target, N: n,
				Plan:  system.CrashOf(ioa.Loc(n - 1)),
				Net:   net,
				Sched: chaos.SchedRandom, Seed: int64(r + 1),
			})
			if err != nil {
				return causal.Summary{}, 0, err
			}
			if v.Failed() {
				violations++
			}
			all = append(all, causal.Compute(v.Trace, nil)...)
		}
		for _, s := range causal.Summarize(all) {
			if s.Family == afd.FamilyEvP {
				return s, violations, nil
			}
		}
		return causal.Summary{}, violations, fmt.Errorf("n=%d %s drop=%d: no %s outputs", n, topoName, drop, afd.FamilyEvP)
	}
	fmt.Printf("%-6s %-6s %-6s %-10s %-12s %-12s %-12s %-10s %-10s\n",
		"n", "topo", "drop", "detects", "det-mean", "det-max", "prop-mean", "mist/run", "spec")
	row := func(n int, topoName string, drop int) error {
		s, violations, err := cell(n, topoName, drop)
		if err != nil {
			return err
		}
		spec := "ok"
		if violations > 0 {
			spec = fmt.Sprintf("%d/%d FAIL", violations, reps)
		}
		fmt.Printf("%-6d %-6s %-6d %-10d %-12.1f %-12d %-12.1f %-10.2f %-10s\n",
			n, topoName, drop, s.Detections, s.DetectionMeanSteps,
			s.DetectionMaxSteps, s.PropagationMeanSteps, s.MistakesPerRun, spec)
		return nil
	}
	for _, topoName := range []string{"full", "ring"} {
		for _, drop := range []int{0, 150, 300} {
			if err := row(4, topoName, drop); err != nil {
				return err
			}
		}
	}
	for _, n := range []int{8, 16} {
		if err := row(n, "full", 0); err != nil {
			return err
		}
	}
	return nil
}

func verdict(err error) string {
	if err != nil {
		return "FAIL"
	}
	return "ok"
}

// e17Survey measures which detector classes and problems survive a degraded
// network: the short survey grid (scenarios × message-passing targets), every
// run under a stride-1 differential oracle with its artifact replayed through
// both engines.  The paper's reliable-channel assumption (§2.3) is the
// baseline row; every other row relaxes it.
func e17Survey() error {
	const steps = 1200
	rep, err := chaos.Survey(chaos.SurveyConfig{
		Steps:     steps,
		Targets:   chaos.SurveyShortTargets(),
		Scenarios: chaos.SurveyShortScenarios(4, steps),
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.Table())
	if !rep.Clean() {
		return errors.New("survey not clean: oracle or replay disagreement")
	}
	if err := rep.Control(); err != nil {
		return err
	}
	fmt.Println("controls hold: baseline survives; heavy loss costs plain gossip strong completeness")
	return nil
}
