// Command diffcheck is the differential-oracle sweep: it runs chaos.Sweep's
// fault-plan × scheduler × seed grid with the internal/oracle invariant
// layer attached through the sweep's instrument hook — enabled-set and
// delivery-set re-derived from first principles every event, every channel
// mirrored by a naive shadow queue — and runs the serial and parallel
// valence explorers on shared configs, diffing their tables node-by-node.
// Any failure is shrunk to a minimal reproducer that still exhibits the
// same divergence clause (the hook re-attaches the oracle to every shrink
// candidate) and written as a replayable trace.Artifact.
//
// A clean exit means the optimized engines — routing index, incremental
// ready-set, ring-buffer channels, parallel frontier exploration — agreed
// with their references at every observed step of every run in the grid.
//
// Usage:
//
//	diffcheck [-n 3] [-t -1] [-seeds 8] [-plans 0] [-steps 0] [-stride 1]
//	          [-scheds rr,random,lifo] [-targets LIST] [-workers 0]
//	          [-valence] [-short] [-out DIR]
//
// -short shrinks the grid to CI size (2 seeds, 3 plans, shorter runs).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/oracle"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/valence"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "diffcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 3, "number of locations")
		maxT     = flag.Int("t", -1, "max crashes per plan (-1 = each target's tolerance)")
		seeds    = flag.Int("seeds", 8, "seeds per (target, scheduler, plan)")
		plans    = flag.Int("plans", 0, "cap on fault plans per target (0 = all subsets)")
		steps    = flag.Int("steps", 0, "step bound per run (0 = default)")
		stride   = flag.Int("stride", 1, "events between full oracle sweeps (1 = every event)")
		scheds   = flag.String("scheds", "", "comma-separated schedulers: rr,random,lifo (default all)")
		targets  = flag.String("targets", "", "comma-separated target IDs (default Ω, ◇P, consensus:Ω)")
		workers  = flag.Int("workers", 0, "parallel runner workers (0 = GOMAXPROCS)")
		valDiff  = flag.Bool("valence", true, "also diff serial vs parallel valence explorers")
		short    = flag.Bool("short", false, "CI-sized grid: 2 seeds, 3 plans, shorter runs")
		outDir   = flag.String("out", "", "write one artifact per failure to this directory")
		telFlags = telemetry.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	tel, flush, err := telFlags.Init()
	if err != nil {
		return err
	}
	defer flush()

	if *short {
		*seeds = 2
		if *plans == 0 {
			*plans = 3
		}
		if *steps == 0 {
			*steps = 400 * *n
		}
	}
	ts, err := chaos.ParseTargets(*targets)
	if err != nil {
		return err
	}
	schedList := chaos.Schedulers()
	if *scheds != "" {
		schedList = strings.Split(*scheds, ",")
	}
	planDesc := "all"
	if *plans > 0 {
		planDesc = fmt.Sprintf("≤%d", *plans)
	}
	fmt.Printf("diffcheck: %d targets × %d schedulers × %d seeds × %s plans, oracle stride %d\n",
		len(ts), len(schedList), *seeds, planDesc, *stride)
	// The sweep meters runs, failures and per-run spans; the oracle's sweep
	// counters and latency histograms are atomic, so they stay meaningful
	// across the concurrent runs and are wired through the hook too.
	rep := chaos.Sweep(chaos.SweepConfig{
		Targets:    ts,
		N:          *n,
		MaxT:       *maxT,
		Seeds:      *seeds,
		Steps:      *steps,
		Scheds:     schedList,
		Workers:    *workers,
		Shrink:     true,
		MaxPlans:   *plans,
		Instrument: instrument(*stride, tel),
		Telemetry:  tel,
	})
	divergences := 0
	for i, f := range rep.Failures {
		kind := "SPEC"
		if strings.Contains(f.Err.Error(), "(oracle-") {
			kind = "DIVERGENCE"
			divergences++
		}
		fmt.Printf("  %s %s sched=%s seed=%d plan=%v steps=%d\n    %v\n",
			kind, f.Run.Target.ID(), f.Run.Sched, f.Run.Seed, f.Run.Plan, f.Steps, f.Err)
		if *outDir != "" {
			path := filepath.Join(*outDir, fmt.Sprintf("diff-%d.json", i))
			if err := trace.WriteArtifactFile(path, f.Artifact()); err != nil {
				return err
			}
			fmt.Println("    artifact:", path)
		}
	}
	for _, e := range rep.Errors {
		fmt.Println("  error:", e)
	}

	valFailures := 0
	if *valDiff {
		valFailures = diffValence(*short, tel)
	}

	fmt.Printf("diffcheck: %d runs, %d divergences, %d spec failures, %d valence diff failures\n",
		rep.Runs, divergences, len(rep.Failures)-divergences, valFailures)
	if failures := len(rep.Failures) + len(rep.Errors) + valFailures; failures > 0 {
		return fmt.Errorf("%d failures", failures)
	}
	return nil
}

// instrument attaches a fresh oracle (full sweeps every stride events plus
// per-event channel shadows) to each built system; the returned check runs
// the end-of-run sweep and yields the first divergence.  The telemetry sink
// (nil when off) meters sweep counts and latencies across all runs.
func instrument(stride int, tel telemetry.Sink) func(*chaos.Built) func() error {
	return func(b *chaos.Built) func() error {
		o := oracle.Attach(b.Sys, oracle.Options{Stride: stride, Shadow: true, Telemetry: tel})
		return o.Check
	}
}

// diffValence runs the serial-vs-parallel explorer diff over a small config
// grid; returns the number of failures.  The sink (nil when off) meters both
// explorers of each diff — node/edge counters double-count by design, since
// the diff runs every config twice.
func diffValence(short bool, tel telemetry.Sink) int {
	type vc struct {
		name string
		cfg  valence.Config
	}
	cases := []vc{
		{"omega-n2-r2", valence.Config{N: 2, Family: "FD-Ω", Algo: "ct", TD: valence.OmegaTD(2, 2, nil)}},
		{"omega-n2-r3-crash1", valence.Config{N: 2, Family: "FD-Ω", Algo: "ct",
			TD: valence.OmegaTD(2, 3, map[ioa.Loc]int{1: 1})}},
		{"perfect-n2-s-r2", valence.Config{N: 2, Family: "FD-P", Algo: "s", TD: valence.PerfectTD(2, 2, nil)}},
	}
	if !short {
		cases = append(cases,
			vc{"omega-n2-r4-crash0", valence.Config{N: 2, Family: "FD-Ω", Algo: "ct",
				TD: valence.OmegaTD(2, 4, map[ioa.Loc]int{0: 2})}},
			vc{"perfect-n3-s-r2", valence.Config{N: 3, Family: "FD-P", Algo: "s",
				TD: valence.PerfectTD(3, 2, map[ioa.Loc]int{2: 1}), MaxNodes: 2_000_000}},
		)
	}
	failures := 0
	for _, c := range cases {
		c.cfg.Telemetry = tel
		if err := oracle.DiffExplorers(c.cfg, oracle.DiffOptions{}); err != nil {
			fmt.Printf("  VALENCE-DIVERGENCE %s\n    %v\n", c.name, err)
			failures++
			continue
		}
		fmt.Printf("  valence %s: serial == parallel (node-by-node)\n", c.name)
	}
	return failures
}
