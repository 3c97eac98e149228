package causal_test

import (
	"fmt"

	"repro/internal/afd"
	"repro/internal/causal"
	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/system"
)

// Detector quality of service under network adversity (EXPERIMENTS.md
// E19): the gossip ◇Q>◇P stack with location n−1 crashed, three seeded
// random runs per cell, over drop rate × topology at n=4 and on the
// reliable full mesh at n=8 and 16.  The figures are the boosted ◇P
// outputs' detection latency (crash to permanent suspicion, per
// observer), propagation spread (first to last observer) and mistakes,
// in trace-event steps.  A run that fails its specification still counts:
// heavy loss costs plain gossip strong completeness (E17), and the spec
// column says how many runs of the cell failed.
func ExampleSummarize() {
	const reps = 3
	target, err := chaos.ParseTarget("gossip:" + afd.FamilyEvQ + ">" + afd.FamilyEvP)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%-2s %-4s %6s %10s %8s %7s %9s %12s  %s\n",
		"n", "topo", "drop‰", "detections", "det-mean", "det-max", "prop-mean", "mistakes/run", "spec")
	row := func(n int, topoName string, drop int) {
		var all []causal.Stats
		failed := 0
		for r := 1; r <= reps; r++ {
			topo, err := system.ParseTopology(n, topoName)
			if err != nil {
				fmt.Println(err)
				return
			}
			net := system.NetSpec{Topo: topo, Drop: drop}
			if net.Lossy() {
				net.Seed = int64(r)
			}
			v, err := chaos.Execute(chaos.Run{
				Target: target, N: n,
				Plan:  system.CrashOf(ioa.Loc(n - 1)),
				Net:   net,
				Sched: chaos.SchedRandom, Seed: int64(r),
			})
			if err != nil {
				fmt.Println(err)
				return
			}
			if v.Failed() {
				failed++
			}
			all = append(all, causal.Compute(v.Trace, nil)...)
		}
		spec := "ok"
		if failed > 0 {
			spec = fmt.Sprintf("%d/%d FAIL", failed, reps)
		}
		for _, s := range causal.Summarize(all) {
			if s.Family == afd.FamilyEvP {
				fmt.Printf("%2d %-4s %6d %10d %8.1f %7d %9.1f %12.2f  %s\n", n, topoName, drop,
					s.Detections, s.DetectionMeanSteps, s.DetectionMaxSteps,
					s.PropagationMeanSteps, s.MistakesPerRun, spec)
			}
		}
	}
	for _, topo := range []string{"full", "ring"} {
		for _, drop := range []int{0, 150, 300} {
			row(4, topo, drop)
		}
	}
	row(8, "full", 0)
	row(16, "full", 0)
	// Output:
	// n  topo  drop‰ detections det-mean det-max prop-mean mistakes/run  spec
	//  4 full      0          9     68.4     128      41.0         0.00  ok
	//  4 full    150          7     55.6      92      27.3         0.00  2/3 FAIL
	//  4 full    300          7     55.7      87      26.0         0.00  2/3 FAIL
	//  4 ring      0          6     76.2     132      30.3         0.00  3/3 FAIL
	//  4 ring    150          5     64.0      97       8.3         0.00  3/3 FAIL
	//  4 ring    300          5     58.0     106      19.3         0.00  3/3 FAIL
	//  8 full      0         21    294.1     444     148.3         0.00  ok
	// 16 full      0         45   1154.8    2208    1035.0         0.00  ok
}
