package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/afd"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/trace"
	"repro/internal/transform"
)

// twice runs a seeded entry point two times in one process and fails unless
// both runs return the same trace and the same error.  Go re-randomizes
// every map range, so an iteration-order leak into a schedule, a generator
// or a sampling shows up as a difference.  The chaos targets have the same
// check in TestEveryKind; these entry points build their systems outside
// the chaos registry.
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

// TestDoubleRunDeterministic runs every seeded entry point outside the chaos
// registry twice with one seed, under the random scheduler and round-robin:
// afd.RunCanonical for every family of afd.Standard, the closure checks and
// the two trace generators they draw from over each family's canonical
// trace, transform.Run for every catalog reduction and the gossip boost,
// and consensus.Run for both algorithms.
func TestDoubleRunDeterministic(t *testing.T) {
	const n = 4
	crash := []ioa.Loc{1, 3}
	w := afd.DefaultWindow()
	for _, seed := range []int64{-1, 7} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, fam := range afd.Families(n) {
				d, err := afd.Lookup(fam, n)
				if err != nil {
					t.Fatal(err)
				}
				spec := afd.RunSpec{N: n, Crash: crash, Seed: seed, CrashGate: 20}
				twice(t, "RunCanonical "+fam, func() (trace.T, error) { return afd.RunCanonical(d, spec) })
				tr, err := afd.RunCanonical(d, spec)
				if err != nil {
					t.Fatal(err)
				}
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

			for _, c := range []struct{ algo, fam string }{
				{"ct", afd.FamilyOmega}, {"ct", afd.FamilyEvP}, {"ct", afd.FamilyEvS}, {"s", afd.FamilyS},
			} {
				d, err := afd.Lookup(c.fam, n)
				if err != nil {
					t.Fatal(err)
				}
				twice(t, "consensus.Run "+c.algo+" "+c.fam, func() (trace.T, error) {
					res, err := consensus.Run(consensus.RunSpec{
						Build: consensus.BuildSpec{
							// A fresh detector per run: Build composes Det itself.
							N: n, Family: c.fam, Det: d.Automaton(n), Algo: c.algo,
							Crash: crash[:1], Values: []int{0, 1, 1, 0},
						},
						Steps: 20_000, Seed: seed, CrashGate: 50,
					})
					if err != nil {
						return nil, err
					}
					return res.Trace, nil
				})
			}
		})
	}
}
