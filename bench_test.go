// Package repro's root benchmark suite: one benchmark per experiment table
// of EXPERIMENTS.md (E1–E16 in DESIGN.md).  Benchmarks report, beyond ns/op,
// the domain metrics the experiments tabulate (events, messages, rounds,
// nodes) via b.ReportMetric.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/afd"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/oracle"
	"repro/internal/problems"
	"repro/internal/sched"
	"repro/internal/selfimpl"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/valence"
)

// BenchmarkSystemThroughput is E1: event throughput of the composed
// Figure-1 system as n grows.
func BenchmarkSystemThroughput(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, err := afd.Lookup(afd.FamilyP, n)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				autos := []ioa.Automaton{d.Automaton(n)}
				autos = append(autos, system.Channels(n)...)
				autos = append(autos, system.NewCrash(system.NoFaults()))
				sys := ioa.MustNewSystem(autos...)
				sys.SetTraceMode(ioa.TraceOff, 0) // throughput, not trace content
				sched.RoundRobin(sys, sched.Options{MaxSteps: 10_000})
				b.ReportMetric(float64(sys.Steps()), "events/op")
			}
		})
	}
}

// BenchmarkSystemThroughputOracle is E1 with the differential oracle
// attached: channel shadows on every event plus full enabled-set/delivery-set
// sweeps every DefaultStride events.  Comparing against
// BenchmarkSystemThroughput measures the oracle's overhead, which the design
// budget caps at 3× (the strided sweep amortizes the O(tasks) reference
// re-derivation over DefaultStride O(1) fast-path steps).
func BenchmarkSystemThroughputOracle(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, err := afd.Lookup(afd.FamilyP, n)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				autos := []ioa.Automaton{d.Automaton(n)}
				autos = append(autos, system.Channels(n)...)
				autos = append(autos, system.NewCrash(system.NoFaults()))
				sys := ioa.MustNewSystem(autos...)
				sys.SetTraceMode(ioa.TraceOff, 0) // same mode as the baseline it is compared to
				o := oracle.Attach(sys, oracle.Options{Shadow: true})
				sched.RoundRobin(sys, sched.Options{MaxSteps: 10_000})
				if err := o.Check(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(sys.Steps()), "events/op")
			}
		})
	}
}

// BenchmarkOmegaAutomaton is E2: Algorithm 1 under a fault plan.
func BenchmarkOmegaAutomaton(b *testing.B) {
	const n = 4
	for i := 0; i < b.N; i++ {
		_, err := afd.RunCanonical(afd.Omega{}, afd.RunSpec{
			N: n, Crash: []ioa.Loc{0}, Steps: 400, Seed: -1, CrashGate: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorZoo is E4: generate and membership-check every detector.
func BenchmarkDetectorZoo(b *testing.B) {
	const n = 4
	w := afd.DefaultWindow()
	for fam, d := range afd.Standard(n) {
		b.Run(fam, func(b *testing.B) {
			tr, err := afd.RunCanonical(d, afd.RunSpec{
				N: n, Crash: []ioa.Loc{3}, Steps: 400, Seed: -1, CrashGate: 100,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Check(tr, n, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOmegaChecker is E2/E3: membership-check cost vs trace length.
func BenchmarkOmegaChecker(b *testing.B) {
	const n = 4
	for _, steps := range []int{200, 800, 3200} {
		b.Run(fmt.Sprintf("len=%d", steps), func(b *testing.B) {
			tr, err := afd.RunCanonical(afd.Omega{}, afd.RunSpec{
				N: n, Crash: []ioa.Loc{3}, Steps: steps, Seed: -1, CrashGate: steps / 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := (afd.Omega{}).Check(tr, n, afd.DefaultWindow()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSelfImplementation is E5: Algorithm 3 stacked on P (run + proof
// pipeline).
func BenchmarkSelfImplementation(b *testing.B) {
	const n = 4
	d, err := afd.Lookup(afd.FamilyP, n)
	if err != nil {
		b.Fatal(err)
	}
	ren := selfimpl.Renaming{From: afd.FamilyP, To: afd.FamilyP + "'"}
	for i := 0; i < b.N; i++ {
		autos := []ioa.Automaton{d.Automaton(n)}
		autos = append(autos, selfimpl.NewCollection(n, ren)...)
		autos = append(autos, system.NewCrash(system.CrashOf(3)))
		sys := ioa.MustNewSystem(autos...)
		sched.RoundRobin(sys, sched.Options{MaxSteps: 600, Gate: sched.CrashesAfter(150, 0)})
		mixed := trace.Project(sys.Trace(), func(a ioa.Action) bool {
			return a.Kind == ioa.KindCrash || a.Kind == ioa.KindFD
		})
		if _, err := selfimpl.VerifyProof(mixed, n, ren); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransformChain is E6: the Theorem-15 composition P→◇P→Ω.
func BenchmarkTransformChain(b *testing.B) {
	const n = 4
	var pToEvP, evPToOmega transform.Local
	for _, l := range transform.Catalog() {
		switch l.Name {
		case "P→◇P":
			pToEvP = l
		case "◇P→Ω":
			evPToOmega = l
		}
	}
	src, err := afd.Lookup(afd.FamilyP, n)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		procs, err := (transform.Chain{pToEvP, evPToOmega}).Procs(n)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := transform.Run(src, procs, afd.FamilyOmega, transform.RunSpec{
			N: n, Crash: []ioa.Loc{3}, Seed: -1, Steps: 1500, CrashGate: 300,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := (afd.Omega{}).Check(tr, n, afd.DefaultWindow()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConsensusByDetector is E7: decision cost by detector and n.
func BenchmarkConsensusByDetector(b *testing.B) {
	for _, fam := range []string{afd.FamilyP, afd.FamilyEvP, afd.FamilyEvS, afd.FamilyOmega} {
		for _, n := range []int{3, 5, 7, 9} {
			b.Run(fmt.Sprintf("%s/n=%d", fam, n), func(b *testing.B) {
				d, err := afd.Lookup(fam, n)
				if err != nil {
					b.Fatal(err)
				}
				vals := make([]int, n)
				for i := range vals {
					vals[i] = i % 2
				}
				for i := 0; i < b.N; i++ {
					res, err := consensus.Run(consensus.RunSpec{
						Build: consensus.BuildSpec{N: n, Family: fam, Det: d.Automaton(n), Values: vals},
						Steps: 400_000,
						Seed:  -1,
					})
					if err != nil {
						b.Fatal(err)
					}
					if !res.AllDecided {
						b.Fatalf("no decision (%s)", res.Reason)
					}
					b.ReportMetric(float64(res.Steps), "events/op")
					b.ReportMetric(float64(res.MaxRound), "rounds/op")
				}
			})
		}
	}
}

// BenchmarkConsensusCrashSweep is E8: decision cost vs coordinator-crash
// timing.
func BenchmarkConsensusCrashSweep(b *testing.B) {
	const n = 3
	for _, gate := range []int{5, 50, 400} {
		b.Run(fmt.Sprintf("gate=%d", gate), func(b *testing.B) {
			d, err := afd.Lookup(afd.FamilyEvP, n)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := consensus.Run(consensus.RunSpec{
					Build: consensus.BuildSpec{
						N: n, Family: afd.FamilyEvP, Det: d.Automaton(n),
						Crash: []ioa.Loc{0}, Values: []int{0, 1, 1},
					},
					Steps:     400_000,
					Seed:      -1,
					CrashGate: gate,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllDecided {
					b.Fatalf("no decision (%s)", res.Reason)
				}
				b.ReportMetric(float64(res.Steps), "events/op")
			}
		})
	}
}

// BenchmarkFLPAdversary is E9: cost of detecting the no-detector stall.
func BenchmarkFLPAdversary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := consensus.Run(consensus.RunSpec{
			Build: consensus.BuildSpec{N: 3, Family: "", Crash: []ioa.Loc{0}, Values: []int{0, 1, 1}},
			Steps: 100_000,
			Seed:  -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Decisions != 0 {
			b.Fatal("unexpected decision without a detector")
		}
	}
}

// BenchmarkValenceExploration is E10: building and valence-tagging RtD, on
// the engine at worker counts 1 and GOMAXPROCS.  The explored tables are
// byte-identical across variants; only the wall clock and allocation
// profile differ.
func BenchmarkValenceExploration(b *testing.B) {
	for _, rounds := range []int{3, 6} {
		for _, workers := range []int{1, 0} {
			name := fmt.Sprintf("n=2/rounds=%d/workers=%d", rounds, workers)
			if workers == 0 {
				name = fmt.Sprintf("n=2/rounds=%d/workers=max", rounds)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e, err := valence.New(valence.Config{
						N: 2, Family: afd.FamilyOmega, TD: valence.OmegaTD(2, rounds, nil),
						Workers: workers,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := e.Explore(); err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(e.NumNodes()), "nodes/op")
				}
			})
		}
	}
}

// BenchmarkValenceReduced is E18: the same exploration with dynamic
// partial-order reduction on, off for contrast, on the n=2 S-algorithm
// crash configuration (the smallest graph where ample sets prune).  The
// reduced variant reports how many nodes the ample sets saved.
func BenchmarkValenceReduced(b *testing.B) {
	for _, reduce := range []bool{false, true} {
		b.Run(fmt.Sprintf("reduce=%t", reduce), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := valence.New(valence.Config{
					N: 2, Family: afd.FamilyP, Algo: "s",
					TD:     valence.PerfectTD(2, 4, map[ioa.Loc]int{1: 1}),
					Reduce: reduce,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := e.Explore(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(e.NumNodes()), "nodes/op")
				if reduce {
					b.ReportMetric(float64(e.Stats().PrunedSteps), "pruned/op")
				}
			}
		})
	}
}

// BenchmarkHookSearch is E11: hook location and Theorem-59 verification.
func BenchmarkHookSearch(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			e, err := valence.New(valence.Config{
				N: 2, Family: afd.FamilyOmega, TD: valence.OmegaTD(2, 6, nil),
				Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := e.Explore(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hooks := e.FindHooks(0)
				if len(hooks) == 0 {
					b.Fatal("no hooks")
				}
				for _, h := range hooks {
					if err := e.VerifyHook(h); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(hooks)), "hooks/op")
			}
		})
	}
}

// BenchmarkBoundedClassifier is E12: the Section-7.3 classifiers.
func BenchmarkBoundedClassifier(b *testing.B) {
	le := problems.LeaderElection{N: 4}
	var traces []trace.T
	for v := 0; v < 4; v++ {
		var tr trace.T
		for i := 0; i < 4; i++ {
			tr = append(tr, ioa.EnvOutput(problems.ActNameElect, ioa.Loc(i), ioa.EncodeLoc(ioa.Loc(v))))
		}
		traces = append(traces, tr)
	}
	w := problems.Witness{
		Traces:   traces,
		IsTrace:  func(t trace.T) error { return le.Check(t, false) },
		IsOutput: func(a ioa.Action) bool { return a.Kind == ioa.KindEnvOut && a.Name == problems.ActNameElect },
	}
	for i := 0; i < b.N; i++ {
		if err := w.CheckCrashIndependence(); err != nil {
			b.Fatal(err)
		}
		if _, err := w.CheckBoundedLength(4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParticipantFD is E13: consensus from the participant oracle.
func BenchmarkParticipantFD(b *testing.B) {
	const n = 3
	for i := 0; i < b.N; i++ {
		autos := problems.ConsensusViaParticipantProcs(n)
		autos = append(autos, system.Channels(n)...)
		autos = append(autos, problems.NewParticipantOracle(n))
		autos = append(autos, system.ConsensusEnvsFixed([]int{1, 0, 1})...)
		autos = append(autos, system.NewCrash(system.NoFaults()))
		sys := ioa.MustNewSystem(autos...)
		sched.RoundRobin(sys, sched.Options{MaxSteps: 10_000})
		if err := problems.CheckParticipant(sys.Trace()); err != nil {
			b.Fatal(err)
		}
		if len(consensus.Decisions(sys.Trace())) != n {
			b.Fatal("missing decisions")
		}
	}
}

// BenchmarkTraceOps is E14: sampling and constrained-reordering generation
// plus verification.
func BenchmarkTraceOps(b *testing.B) {
	const n = 4
	tr, err := afd.RunCanonical(afd.Standard(n)[afd.FamilyP], afd.RunSpec{
		N: n, Crash: []ioa.Loc{3}, Steps: 200, Seed: -1, CrashGate: 50,
	})
	if err != nil {
		b.Fatal(err)
	}
	isOut := afd.IsOutput(afd.FamilyP)
	// sched.PRNG, not math/rand: the generated samplings/reorderings are
	// then stable across Go releases (same motivation as sched.Random).
	rng := sched.NewPRNG(1)
	b.Run("sampling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := trace.GenSampling(tr, n, isOut, rng)
			if err := trace.IsSampling(s, tr, n, isOut); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reordering", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := trace.GenConstrainedReordering(tr, rng)
			if err := trace.IsConstrainedReordering(r, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKSetAgreement is E12a: the detector-free (f+1)-set algorithm.
func BenchmarkKSetAgreement(b *testing.B) {
	const n, f = 5, 2
	for i := 0; i < b.N; i++ {
		autos := problems.KSetProcs(n, f)
		autos = append(autos, system.Channels(n)...)
		autos = append(autos, system.ConsensusEnvsFixed([]int{0, 1, 0, 1, 0})...)
		autos = append(autos, system.NewCrash(system.CrashOf(0, 4)))
		sys := ioa.MustNewSystem(autos...)
		sched.RoundRobin(sys, sched.Options{MaxSteps: 50_000, Gate: sched.CrashesAfter(20, 20)})
		if len(consensus.Decisions(sys.Trace())) == 0 {
			b.Fatal("no decisions")
		}
	}
}

// BenchmarkNBAC is E12b: non-blocking atomic commit over P.
func BenchmarkNBAC(b *testing.B) {
	const n = 3
	d, err := afd.Lookup(afd.FamilyP, n)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		procs, err := problems.NBACProcs(n, afd.FamilyP)
		if err != nil {
			b.Fatal(err)
		}
		autos := procs
		autos = append(autos, system.Channels(n)...)
		autos = append(autos, problems.VoterEnvs([]string{problems.VoteYes, problems.VoteYes, problems.VoteYes})...)
		autos = append(autos, d.Automaton(n))
		autos = append(autos, system.NewCrash(system.NoFaults()))
		sys := ioa.MustNewSystem(autos...)
		outcomes := 0
		sched.RoundRobin(sys, sched.Options{
			MaxSteps: 100_000,
			Stop: func(_ *ioa.System, last ioa.Action) bool {
				if last.Kind == ioa.KindEnvOut && last.Name == problems.ActNameOutcome {
					outcomes++
				}
				return outcomes == n
			},
		})
		if outcomes != n {
			b.Fatal("missing outcomes")
		}
	}
}

// BenchmarkMutex is E15: the long-lived ◇-mutex algorithm over ◇P.
func BenchmarkMutex(b *testing.B) {
	const n = 3
	d, err := afd.Lookup(afd.FamilyEvP, n)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		procs, err := problems.MutexProcs(n, afd.FamilyEvP)
		if err != nil {
			b.Fatal(err)
		}
		autos := procs
		autos = append(autos, system.Channels(n)...)
		autos = append(autos, d.Automaton(n))
		autos = append(autos, system.NewCrash(system.CrashOf(2)))
		sys := ioa.MustNewSystem(autos...)
		sched.RoundRobin(sys, sched.Options{MaxSteps: 4000, Gate: sched.CrashesAfter(60, 0)})
		rounds := problems.MutexRounds(sys.Trace())
		total := 0
		for _, c := range rounds {
			total += c
		}
		if total == 0 {
			b.Fatal("no critical sections")
		}
		b.ReportMetric(float64(total), "cs/op")
	}
}

// BenchmarkURB is E16: uniform reliable broadcast by majority diffusion.
func BenchmarkURB(b *testing.B) {
	const n = 5
	for i := 0; i < b.N; i++ {
		autos := problems.URBMajorityProcs(n)
		autos = append(autos, system.Channels(n)...)
		for j := 0; j < n; j++ {
			autos = append(autos, problems.NewBroadcasterEnv(ioa.Loc(j), fmt.Sprintf("m%d", j)))
		}
		autos = append(autos, system.NewCrash(system.CrashOf(0, 4)))
		sys := ioa.MustNewSystem(autos...)
		sched.RoundRobin(sys, sched.Options{MaxSteps: 30_000, Gate: sched.CrashesAfter(20, 20)})
		delivers := 0
		for _, a := range sys.Trace() {
			if a.Kind == ioa.KindEnvOut && a.Name == problems.ActNameDeliver {
				delivers++
			}
		}
		if delivers == 0 {
			b.Fatal("no deliveries")
		}
		b.ReportMetric(float64(delivers), "delivers/op")
	}
}
