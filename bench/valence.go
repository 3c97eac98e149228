package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/valence"
)

// valenceWL is the hook path of the paper's impossibility argument: each op
// explores the execution tree of the golden configurations, finds the hooks,
// verifies each against Theorem 59 and checks Lemma 52 and Proposition 50 on
// the whole graph, in each of the workload's modes: unreduced, reduced
// under partial-order reduction, or both in turn.  The configurations are
// fixed, so the seed changes nothing here: the point is to explore the same
// graphs every time.
type valenceWL struct {
	n       int
	workers int
	reduce  []bool // the modes of an op, in order
	cfgs    []valence.Config
	// ref holds the first op's counts; every later op must repeat them.
	ref map[string]float64
}

// newValence returns the n=2 workload (the Ω rounds=6 and perfect-S crash
// 1:1 golden configurations at one worker, unreduced then reduced: small
// graphs, where fixed cost dominates and the unreduced explorer is the
// serial reference path) or the n=3 one (the perfect-S golden configuration
// at two workers, reduced: 70,808 of its 230,890 nodes).  The n=3 graph is
// explored reduced only: the unreduced one takes over three times as long,
// so a run would hold a handful of ops, too few for a steady median.
func newValence(n int) *valenceWL {
	if n == 2 {
		return &valenceWL{n: 2, workers: 1, reduce: []bool{false, true}}
	}
	return &valenceWL{n: 3, workers: 2, reduce: []bool{true}}
}

func (w *valenceWL) setup(int64) error {
	if w.n == 2 {
		w.cfgs = []valence.Config{
			{N: 2, Family: afd.FamilyOmega, TD: valence.OmegaTD(2, 6, nil)},
			{N: 2, Family: afd.FamilyP, Algo: "s", TD: valence.PerfectTD(2, 4, map[ioa.Loc]int{1: 1})},
		}
	} else {
		w.cfgs = []valence.Config{{
			N: 3, Family: afd.FamilyP, Algo: "s",
			TD:     valence.PerfectTD(3, 2, map[ioa.Loc]int{2: 1}),
			Values: []int{-1, 1, 1}, MaxNodes: 1_500_000,
		}}
	}
	for k := range w.cfgs {
		w.cfgs[k].Workers = w.workers
		for _, reduce := range w.reduce {
			cfg := w.cfgs[k]
			cfg.Reduce = reduce
			if _, err := valence.New(cfg); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *valenceWL) passLen() int { return 1 }

// heapCounters reads the cumulative heap allocations and GC cycles.
func heapCounters() (allocs, gcs uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func (w *valenceWL) op(i int, c *opCtx) error {
	got := map[string]float64{}
	var err error
	for k, reduce := range w.reduce {
		mode := "full"
		if reduce {
			mode = "reduced"
		}
		if k > 0 {
			// Drop the unreduced graphs before the reduced half, so it does
			// not pay for collecting them and the heap peak stays at the
			// larger half's.
			c.share("runtime.gc_share", c.span("runtime.gc", runtime.GC))
		}
		sfx := "." + mode
		var newD, exploreD, hooksD, verifyD time.Duration
		var nodes, edges, hooks, allocs float64
		_, gc0 := heapCounters()
		d := c.span("valence."+mode, func() {
			for _, cfg := range w.cfgs {
				cfg.Reduce = reduce
				var e *valence.Explorer
				newD += c.span("valence.new", func() { e, err = valence.New(cfg) })
				if err != nil {
					return
				}
				var a0, a1 uint64
				if c.traced() {
					a0, _ = heapCounters()
				}
				exploreD += c.span("valence.explore", func() { err = e.Explore() })
				if c.traced() {
					a1, _ = heapCounters()
				}
				if err != nil {
					return
				}
				var hs []valence.Hook
				hooksD += c.span("valence.findhooks", func() { hs = e.FindHooks(0) })
				verifyD += c.span("valence.verify", func() { err = verify(e, hs) })
				if err != nil {
					return
				}
				st := e.Stats()
				nodes += float64(st.Nodes)
				edges += float64(st.Edges)
				hooks += float64(len(hs))
				allocs += float64(a1 - a0)
				if reduce {
					got["valence.pruned_steps"] += float64(st.PrunedSteps)
					got["valence.reduce_rounds"] += float64(st.ReduceRounds)
					got["valence.forced_full"] += float64(st.ForcedCycle + st.ForcedBivalent)
				}
			}
		})
		if err != nil {
			return fmt.Errorf("%s: %w", mode, err)
		}
		_, gc1 := heapCounters()
		got["valence.nodes"+sfx] = nodes
		got["valence.edges"+sfx] = edges
		got["valence.hooks"+sfx] = hooks
		c.share("valence.op_share"+sfx, d)
		c.share("valence.new_share"+sfx, newD)
		c.share("valence.explore_share"+sfx, exploreD)
		c.share("valence.findhooks_share"+sfx, hooksD)
		c.share("valence.verify_share"+sfx, verifyD)
		c.sample("valence.nodes_per_s"+sfx, nodes/exploreD.Seconds())
		c.sample("valence.allocs_per_node"+sfx, allocs/nodes)
		c.sample("valence.gc_cycles"+sfx, float64(gc1-gc0))
	}
	c.done()
	if len(w.reduce) == 2 {
		got["valence.reduction_ratio"] = got["valence.nodes.full"] / got["valence.nodes.reduced"]
	}
	if w.ref == nil {
		w.ref = got
	}
	for k, v := range got {
		if w.ref[k] != v {
			return fmt.Errorf("%s = %v, first op had %v", k, v, w.ref[k])
		}
		c.count(k, v)
	}
	return nil
}

// verify checks every hook against Theorem 59 and the graph against Lemma
// 52 and Proposition 50.  The golden configurations have bivalent roots, so
// Lemma 55 promises at least one hook.
func verify(e *valence.Explorer, hs []valence.Hook) error {
	if len(hs) == 0 {
		return fmt.Errorf("no hook found")
	}
	for _, h := range hs {
		if err := e.VerifyHook(h); err != nil {
			return err
		}
	}
	if err := e.CheckLemma52(); err != nil {
		return err
	}
	return e.CheckProposition50()
}
