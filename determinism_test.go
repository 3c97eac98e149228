package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/afd"
	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/transform"
)

// twice runs a seeded entry point two times in one process and fails unless
// both runs return the same trace and the same error.  Go re-randomizes
// every map range, so an iteration-order leak into a schedule, a generator
// or a sampling shows up as a difference.  TestEveryKind makes the same
// check on one row of every chaos target kind.
func twice(t *testing.T, name string, run func() (trace.T, error)) {
	t.Helper()
	a, aerr := run()
	b, berr := run()
	if fmt.Sprint(aerr) != fmt.Sprint(berr) {
		t.Fatalf("%s: first run returned %v, second %v", name, aerr, berr)
	}
	if !trace.Equal(a, b) {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		t.Fatalf("%s: runs differ from event %d (%d vs %d events)", name, i, len(a), len(b))
	}
}

// executed runs r through chaos.Execute for twice: its trace, and its
// infrastructure error or else its verdict.
func executed(r chaos.Run) func() (trace.T, error) {
	return func() (trace.T, error) {
		v, err := chaos.Execute(r)
		if err != nil {
			return nil, err
		}
		return v.Trace, v.Err
	}
}

// TestDoubleRunDeterministic runs seeded entry points twice with one seed,
// under the random scheduler and round-robin (seed -1): chaos.Execute of
// the detector target of every family of afd.Standard and of the consensus
// and smachine targets; the closure checks and the two trace generators
// they draw from over each family's canonical trace; and transform.Run,
// the one run helper that builds outside the chaos registry, for every
// catalog reduction and the gossip boost.
func TestDoubleRunDeterministic(t *testing.T) {
	const n = 4
	crash := []ioa.Loc{1, 3}
	w := afd.DefaultWindow()
	for _, seed := range []int64{-1, 7} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sk := chaos.SchedRandom
			if seed < 0 {
				sk = chaos.SchedRoundRobin
			}
			for _, fam := range afd.Families(n) {
				d, err := afd.Lookup(fam, n)
				if err != nil {
					t.Fatal(err)
				}
				r := chaos.Run{
					Target: chaos.DetectorTarget{Family: fam}, N: n, Plan: system.CrashOf(crash...),
					Gates: chaos.GateSpec{CrashAfter: 20, CrashGap: 20}, Sched: sk, Seed: seed, Steps: 64 * n,
				}
				twice(t, "detector:"+fam, executed(r))
				v, err := chaos.Execute(r)
				if err != nil {
					t.Fatal(err)
				}
				tr := v.Trace
				rs := max(seed, 0)
				twice(t, "CheckClosureUnderSampling "+fam, func() (trace.T, error) {
					return nil, afd.CheckClosureUnderSampling(d, tr, n, w, 3, rs)
				})
				twice(t, "CheckClosureUnderReordering "+fam, func() (trace.T, error) {
					return nil, afd.CheckClosureUnderReordering(d, tr, n, w, 3, rs)
				})
				twice(t, "GenSampling "+fam, func() (trace.T, error) {
					return trace.GenSampling(tr, n, afd.IsOutput(fam), rand.New(rand.NewSource(rs))), nil
				})
				twice(t, "GenConstrainedReordering "+fam, func() (trace.T, error) {
					return trace.GenConstrainedReordering(tr, rand.New(rand.NewSource(rs))), nil
				})
			}

			type reduction struct {
				name, from, to string
				procs          func(n int) []ioa.Automaton
				channels       bool
			}
			var reductions []reduction
			for _, l := range transform.Catalog() {
				reductions = append(reductions, reduction{l.Name, l.From, l.To, l.Procs, false})
			}
			g := transform.Gossip{From: afd.FamilyW, To: afd.FamilyS}
			reductions = append(reductions, reduction{"gossip W→S", g.From, g.To, g.Procs, true})
			for _, r := range reductions {
				src, err := afd.Lookup(r.from, n)
				if err != nil {
					t.Fatal(err)
				}
				twice(t, "transform.Run "+r.name, func() (trace.T, error) {
					return transform.Run(src, r.procs(n), r.to, transform.RunSpec{
						N: n, Crash: crash, Seed: seed, Steps: 1200, CrashGate: 100, WithChannels: r.channels,
					})
				})
			}

			for _, id := range []string{
				"consensus:FD-Ω@0110", "consensus:FD-◇P@0110", "consensus:FD-◇S@0110", "smachine:FD-S@0110",
			} {
				twice(t, id, executed(chaos.Run{
					Target: mustTarget(id), N: n, Plan: system.CrashOf(crash[0]),
					Gates: chaos.GateSpec{CrashAfter: 50, CrashGap: 50}, Sched: sk, Seed: seed, Steps: 20_000,
				}))
			}
		})
	}
}
