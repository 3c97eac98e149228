package repro

import (
	"fmt"
	"testing"

	"repro/internal/afd"
	"repro/internal/causal"
	"repro/internal/chaos"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/live"
	"repro/internal/sched"
	"repro/internal/selfimpl"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/transform"
)

// TestTheorem16EndToEnd composes, in a single system, the canonical P
// automaton, the P→Ω reduction, and the Ω-driven consensus algorithm — the
// construction of Lemma 16: since P ⪰ Ω, P solves every problem Ω solves,
// by stacking the reduction under the Ω-based algorithm.  The consensus
// specification must hold on the composite trace.
func TestTheorem16EndToEnd(t *testing.T) {
	const n = 3
	var pToOmega transform.Local
	for _, l := range transform.Catalog() {
		if l.Name == "P→Ω" {
			pToOmega = l
		}
	}

	src, err := afd.Lookup(afd.FamilyP, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{-1, 1, 2} {
		// Automata are mutable: every run needs fresh instances.
		consProcs, err := consensus.Procs(n, afd.FamilyOmega)
		if err != nil {
			t.Fatal(err)
		}
		autos := []ioa.Automaton{src.Automaton(n)}
		autos = append(autos, pToOmega.Procs(n)...)
		autos = append(autos, consProcs...)
		autos = append(autos, system.Channels(n)...)
		autos = append(autos, system.ConsensusEnvsFixed([]int{1, 0, 1})...)
		autos = append(autos, system.NewCrash(system.CrashOf(0)))
		sys, err := ioa.NewSystem(autos...)
		if err != nil {
			t.Fatal(err)
		}
		// Hide the intermediate P outputs: the composite's external
		// detector interface is the derived Ω (Section 2.3 hiding).
		sys.Hide(func(a ioa.Action) bool { return a.Kind == ioa.KindFD && a.Name == afd.FamilyP })

		decided := make(map[ioa.Loc]bool)
		crashed := make(map[ioa.Loc]bool)
		opts := sched.Options{
			MaxSteps: 200_000,
			Gate:     sched.CrashesAfter(40, 0),
			Stop: func(_ *ioa.System, last ioa.Action) bool {
				switch {
				case last.Kind == ioa.KindCrash:
					crashed[last.Loc] = true
				case last.Kind == ioa.KindEnvOut && last.Name == system.ActNameDecide:
					decided[last.Loc] = true
				}
				for i := 0; i < n; i++ {
					if !crashed[ioa.Loc(i)] && !decided[ioa.Loc(i)] {
						return false
					}
				}
				return true
			},
		}
		var res sched.Result
		if seed >= 0 {
			res = sched.Random(sys, seed, opts)
		} else {
			res = sched.RoundRobin(sys, opts)
		}
		if res.Reason != sched.StopCondition {
			t.Fatalf("seed %d: run ended %s without full decision", seed, res.Reason)
		}
		spec := consensus.Spec{N: n, F: 1}
		if err := spec.Check(consensus.ProjectIO(sys.Trace()), true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The hidden P events must not leak into the external trace.
		for _, a := range sys.Trace() {
			if a.Kind == ioa.KindFD && a.Name == afd.FamilyP {
				t.Fatalf("seed %d: hidden P event leaked: %v", seed, a)
			}
		}
	}
}

// TestSelfImplementationUnderConsensus stacks Algorithm 3 *between* the
// detector and the algorithm: consensus consumes the renamed detector
// family, exercising self-implementability as a transparent shim — the
// practical content of Theorem 13.
func TestSelfImplementationUnderConsensus(t *testing.T) {
	const n = 3
	renamed := afd.FamilyOmega + "'"
	src, err := afd.Lookup(afd.FamilyOmega, n)
	if err != nil {
		t.Fatal(err)
	}
	ren := selfimpl.Renaming{From: afd.FamilyOmega, To: renamed}

	// Consensus processes subscribed to the *renamed* family, with leader
	// suspectors (the adapter only reads payloads, which renaming keeps).
	procs := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		m := consensus.NewCTMachine(n, ioa.Loc(i), consensus.NewLeaderSuspector())
		procs[i] = system.NewProc("ct", ioa.Loc(i), n, m, []string{renamed}, []string{system.ActNamePropose})
	}

	autos := []ioa.Automaton{src.Automaton(n)}
	autos = append(autos, selfimpl.NewCollection(n, ren)...)
	autos = append(autos, procs...)
	autos = append(autos, system.Channels(n)...)
	autos = append(autos, system.ConsensusEnvsFixed([]int{0, 1, 0})...)
	autos = append(autos, system.NewCrash(system.CrashOf(2)))
	sys, err := ioa.NewSystem(autos...)
	if err != nil {
		t.Fatal(err)
	}

	decisions := 0
	res := sched.RoundRobin(sys, sched.Options{
		MaxSteps: 200_000,
		Gate:     sched.CrashesAfter(60, 0),
		Stop: func(_ *ioa.System, last ioa.Action) bool {
			if last.Kind == ioa.KindEnvOut && last.Name == system.ActNameDecide {
				decisions++
			}
			return decisions == 2 // locations 0 and 1 (2 crashes)
		},
	})
	if res.Reason != sched.StopCondition {
		t.Fatalf("run ended %s with %d decisions", res.Reason, decisions)
	}
	if err := (consensus.Spec{N: n, F: 1}).Check(consensus.ProjectIO(sys.Trace()), true); err != nil {
		t.Fatal(err)
	}
	// The renamed stream itself is an admissible Ω trace (Theorem 13).
	back := ren.InvertTrace(trace.FD(sys.Trace(), renamed))
	if err := src.Check(back, n, afd.DefaultWindow()); err != nil {
		t.Fatalf("renamed detector stream not admissible: %v", err)
	}
}

// TestRunRejectsOutOfRangeN feeds every entry point that builds a chaos run
// — execution for each target kind, both replay engines, causal
// reconstruction and a live run — a location count outside 1..64.  Each
// must return an error: a negative n used to panic in makeslice, and a
// consensus target at n=65 in the CT machine's 64-location bound.  The
// replayed artifacts are real n=3 recordings with n rewritten, one over the
// full mesh (rejected by chaos.Run.Build) and one over a ring (rejected
// while decoding the topology).  The replay entry points must also reject
// an artifact naming an unknown target, and one that records no events:
// neither records an execution the cross-engine replay could certify.
func TestRunRejectsOutOfRangeN(t *testing.T) {
	ids := []string{"detector:FD-Ω", "consensus:FD-Ω", "gossip:FD-Q>FD-P", "urb:majority", "participant:consensus"}
	record := func(id string, net system.NetSpec) *trace.Artifact {
		tg, err := chaos.ParseTarget(id)
		if err != nil {
			t.Fatal(err)
		}
		v, err := chaos.Execute(chaos.Run{Target: tg, N: 3, Net: net, Steps: 200})
		if err != nil {
			t.Fatal(err)
		}
		return v.Artifact()
	}
	mesh := record("gossip:FD-Q>FD-P", system.NetSpec{})
	ring := record("gossip:FD-Q>FD-P", system.NetSpec{Topo: system.RingTopology(3)})
	for _, n := range []int{-3, 0, 65} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rejects := func(name string, f func() error) {
				t.Helper()
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s panicked: %v", name, p)
					}
				}()
				if err := f(); err == nil {
					t.Errorf("%s accepted n=%d", name, n)
				}
			}
			for _, id := range ids {
				tg, err := chaos.ParseTarget(id)
				if err != nil {
					t.Fatal(err)
				}
				rejects("Execute "+id, func() error {
					_, err := chaos.Execute(chaos.Run{Target: tg, N: n})
					return err
				})
			}
			for name, rec := range map[string]*trace.Artifact{"mesh": mesh, "ring": ring} {
				a := *rec
				a.N = n
				rejects("Replay "+name, func() error { _, err := chaos.Replay(&a); return err })
				rejects("ReplayThroughSystem "+name, func() error { return chaos.ReplayThroughSystem(&a) })
				rejects("causal.Build "+name, func() error { _, err := causal.Build(&a); return err })
			}
			tg, err := chaos.ParseTarget("gossip:FD-Q>FD-P")
			if err != nil {
				t.Fatal(err)
			}
			rejects("live.RunTarget", func() error {
				_, err := live.RunTarget(live.RunSpec{Target: tg, N: n})
				return err
			})
		})
	}
	empty := *mesh
	empty.Trace = nil
	for name, a := range map[string]*trace.Artifact{
		"bogus target": {Target: "bogus", N: -3},
		"zero events":  &empty,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := chaos.Replay(a); err == nil {
				t.Error("Replay accepted it")
			}
			if err := chaos.ReplayThroughSystem(a); err == nil {
				t.Error("ReplayThroughSystem accepted it")
			}
			if _, err := causal.Build(a); err == nil {
				t.Error("causal.Build accepted it")
			}
		})
	}
}
