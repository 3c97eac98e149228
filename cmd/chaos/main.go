// Command chaos drives the fault-injection harness of internal/chaos:
// randomized fault plans and adversarial schedules swept against the
// repository's specification checkers, with failing runs shrunk to minimal
// reproducers and written as replayable JSON artifacts.
//
// Subcommands:
//
//	chaos sweep  [-n 3] [-t -1] [-seeds 8] [-steps 0] [-targets LIST]
//	             [-scheds rr,random,lifo] [-workers 0] [-out DIR]
//	    Sweep targets × schedulers × seeds × fault plans; shrink and
//	    report every violation, writing one artifact per failure to -out.
//
//	chaos run    -target detector:FD-Ω [-n 3] [-crash 0,2] [-sched random]
//	             [-seed 1] [-steps 0] [-crash-after 0] [-crash-gap 0]
//	             [-delay-nth 0] [-delay-for 0] [-topo ring] [-drop 100]
//	             [-dup 0] [-reorder 0] [-net-seed 1] [-partition-mask 3]
//	             [-partition-at 0] [-heal-at 0] [-out artifact.json] [-qos]
//	    Execute one fully specified run — optionally over an adversarial
//	    network (restricted topology, lossy links, partition window) —
//	    and print the verdict.
//
//	chaos live   -target gossip:FD-◇Q>FD-◇P>FD-Ω [-n 3] [-crash 2]
//	             [-transport chan|tcp] [-interval 100µs] [-duration 30s]
//	             [-steps 0] [-seed 0] [-out artifact.json]
//	    Run a target on the live runtime — one goroutine per automaton,
//	    wall-clock heartbeats, an in-process or TCP loopback transport —
//	    judge the trace with the target's checker and replay it through
//	    the simulated engine.  Exits non-zero on either failure.
//
//	chaos replay ARTIFACT.json
//	    Re-execute a recorded run and confirm it reproduces the recorded
//	    verdict and trace exactly.
//
//	chaos survey [-n 4] [-seeds 1] [-steps 0] [-workers 4] [-short]
//	    Sweep the property-survival grid: scenarios (topologies, loss
//	    rates, partitions) × message-passing targets, every run under a
//	    stride-1 differential oracle with its artifact replayed
//	    bit-for-bit.  Prints the survival table; exits non-zero unless the
//	    grid is clean and both controls hold.
//
// Examples:
//
//	chaos sweep
//	chaos sweep -targets detector:slanderer -out /tmp/artifacts
//	chaos run -target consensus:FD-Ω -n 5 -crash 1,3 -sched lifo -seed 7
//	chaos run -target gossip:FD-Q>FD-P -n 4 -crash 1 -topo ring
//	chaos run -target nbac@101 -crash 2 -crash-after 30
//	chaos live -target urb:P -crash 1 -transport tcp
//	chaos replay /tmp/artifacts/fail-0.json
//	chaos survey -short
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/causal"
	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/live"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: chaos sweep|run|live|replay|survey [flags]")
	}
	switch args[0] {
	case "sweep":
		return runSweep(args[1:])
	case "run":
		return runOne(args[1:])
	case "live":
		return runLive(args[1:])
	case "replay":
		return runReplay(args[1:])
	case "survey":
		return runSurvey(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want sweep, run, live, replay, or survey)", args[0])
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

func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 3, "number of locations")
		maxT     = fs.Int("t", -1, "max crashes per plan (-1 = each target's tolerance)")
		seeds    = fs.Int("seeds", 8, "seeds per (target, scheduler, plan)")
		steps    = fs.Int("steps", 0, "step bound per run (0 = default)")
		targets  = fs.String("targets", "", "comma-separated target IDs (default Ω, ◇P, consensus:Ω)")
		scheds   = fs.String("scheds", "", "comma-separated schedulers: rr,random,lifo (default all)")
		workers  = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		outDir   = fs.String("out", "", "write one artifact per failure to this directory")
		telFlags = telemetry.RegisterFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tel, flush, err := telFlags.Init()
	if err != nil {
		return err
	}
	defer flush()
	ts, err := chaos.ParseTargets(*targets)
	if err != nil {
		return err
	}
	var schedList []string
	if *scheds != "" {
		schedList = strings.Split(*scheds, ",")
	}
	rep := chaos.Sweep(chaos.SweepConfig{
		Targets:   ts,
		N:         *n,
		MaxT:      *maxT,
		Seeds:     *seeds,
		Steps:     *steps,
		Scheds:    schedList,
		Workers:   *workers,
		Shrink:    true,
		Telemetry: tel,
	})
	fmt.Println(rep.Summary())
	for _, e := range rep.Errors {
		fmt.Println("  error:", e)
	}
	for i, f := range rep.Failures {
		fmt.Printf("  FAIL %s sched=%s seed=%d steps=%d plan=%v\n       %v\n",
			f.Run.Target.ID(), f.Run.Sched, f.Run.Seed, f.Steps, f.Run.Plan, f.Err)
		if *outDir != "" {
			path := filepath.Join(*outDir, fmt.Sprintf("fail-%d.json", i))
			if err := trace.WriteArtifactFile(path, f.Artifact()); err != nil {
				return err
			}
			fmt.Println("       artifact:", path)
		}
	}
	if len(rep.Failures) > 0 || len(rep.Errors) > 0 {
		return fmt.Errorf("%d violations", len(rep.Failures)+len(rep.Errors))
	}
	return nil
}

func runOne(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var (
		target     = fs.String("target", "detector:FD-Ω", "target ID, e.g. detector:FD-P or consensus:FD-Ω")
		n          = fs.Int("n", 3, "number of locations")
		crash      = fs.String("crash", "", "comma-separated fault plan, in crash order")
		schedKind  = fs.String("sched", "rr", "scheduler: rr, random, or lifo")
		seed       = fs.Int64("seed", 0, "scheduler seed (random/lifo)")
		steps      = fs.Int("steps", 0, "step bound (0 = default)")
		crashAfter = fs.Int("crash-after", 0, "gate: block crashes until this step")
		crashGap   = fs.Int("crash-gap", 0, "gate: steps between crash releases")
		delayNth   = fs.Int("delay-nth", 0, "gate: delay every nth delivery")
		delayFor   = fs.Int("delay-for", 0, "gate: delivery delay in steps")
		topo       = fs.String("topo", "", "network topology: full, ring, star:H, grid:RxC, cut:L, links:a>b,...")
		drop       = fs.Int("drop", 0, "per-link drop rate in permille")
		dup        = fs.Int("dup", 0, "per-link duplication rate in permille")
		reorder    = fs.Int("reorder", 0, "per-link reorder rate in permille")
		netSeed    = fs.Int64("net-seed", 1, "seed for link loss decisions")
		partMask   = fs.Uint64("partition-mask", 0, "gate: partition side-1 location bitmask (0 = none)")
		partAt     = fs.Int("partition-at", 0, "gate: partition engages at this step")
		healAt     = fs.Int("heal-at", 0, "gate: partition heals at this step (≤ partition-at: never)")
		outFile    = fs.String("out", "", "write the run as an artifact to this file")
		qos        = fs.Bool("qos", false, "print per-detector QoS analytics for the run")
		telFlags   = telemetry.RegisterFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tel, flush, err := telFlags.Init()
	if err != nil {
		return err
	}
	defer flush()
	t, err := chaos.ParseTarget(*target)
	if err != nil {
		return err
	}
	locs, err := parseLocs(*crash)
	if err != nil {
		return err
	}
	gates := chaos.NoGates()
	gates.CrashAfter, gates.CrashGap = *crashAfter, *crashGap
	gates.DelayNth, gates.DelayFor = *delayNth, *delayFor
	gates.PartitionMask, gates.PartitionAt, gates.HealAt = *partMask, *partAt, *healAt
	topology, err := system.ParseTopology(*n, *topo)
	if err != nil {
		return err
	}
	net := system.NetSpec{Topo: topology, Drop: *drop, Dup: *dup, Reorder: *reorder}
	if net.Lossy() {
		net.Seed = *netSeed
	}
	var instrument func(*chaos.Built) func() error
	if tel != nil {
		instrument = chaos.TelemetryHook(tel)
	}
	v, err := chaos.ExecuteInstrumented(chaos.Run{
		Target: t,
		N:      *n,
		Plan:   system.CrashOf(locs...),
		Gates:  gates,
		Net:    net,
		Sched:  *schedKind,
		Seed:   *seed,
		Steps:  *steps,
	}, instrument)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d steps (%s), %d trace events\n", t.ID(), v.Steps, v.Reason, len(v.Trace))
	if *qos {
		for _, s := range causal.Compute(v.Trace, nil) {
			fmt.Printf("qos %s: %d observers, %d detections (mean %.1f / max %d steps), propagation %d steps, %d mistakes\n",
				s.Family, s.Observers, len(s.Detections),
				s.DetectionMeanSteps, s.DetectionMaxSteps, s.PropagationSteps, s.MistakeCount)
		}
	}
	if *outFile != "" {
		a := v.Artifact()
		// Cross-link artifact and Chrome trace both ways when both exist.
		if telFlags.TraceOut != "" {
			a.TraceRef = telFlags.TraceOut
			if reg, ok := tel.(*telemetry.Registry); ok {
				reg.Trace().SetMeta("artifact", *outFile)
			}
		}
		if err := trace.WriteArtifactFile(*outFile, a); err != nil {
			return err
		}
		fmt.Println("artifact:", *outFile)
	}
	if v.Failed() {
		return fmt.Errorf("specification violated: %w", v.Err)
	}
	fmt.Println("specification satisfied")
	return nil
}

func runLive(args []string) error {
	fs := flag.NewFlagSet("live", flag.ContinueOnError)
	var (
		target    = fs.String("target", "gossip:FD-◇Q>FD-◇P>FD-Ω", "target ID")
		n         = fs.Int("n", 3, "number of locations")
		crash     = fs.String("crash", "", "comma-separated fault plan, in crash order")
		transport = fs.String("transport", "chan", "transport: chan or tcp")
		interval  = fs.Duration("interval", 100*time.Microsecond, "heartbeat interval")
		duration  = fs.Duration("duration", 30*time.Second, "wall-clock budget")
		steps     = fs.Int("steps", 0, "step bound (0 = default)")
		seed      = fs.Int64("seed", 0, "transport delay seed")
		outFile   = fs.String("out", "", "write the run as an artifact to this file")
		telFlags  = telemetry.RegisterFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tel, flush, err := telFlags.Init()
	if err != nil {
		return err
	}
	defer flush()
	t, err := chaos.ParseTarget(*target)
	if err != nil {
		return err
	}
	locs, err := parseLocs(*crash)
	if err != nil {
		return err
	}
	opts := live.Options{Seed: *seed, Interval: *interval, Duration: *duration, MaxSteps: *steps, Telemetry: tel}
	switch *transport {
	case "chan":
	case "tcp":
		tcp, err := live.NewTCPTransport()
		if err != nil {
			return err
		}
		opts.Transport = tcp
	default:
		return fmt.Errorf("unknown transport %q (chan | tcp)", *transport)
	}
	rep, err := live.RunTarget(live.RunSpec{Target: t, N: *n, Plan: system.CrashOf(locs...), Opts: opts})
	if err != nil {
		return err
	}
	res := rep.Result
	fmt.Printf("%s: %d steps in %v (%s), %d trace events\n",
		t.ID(), res.Steps, res.Elapsed.Round(time.Millisecond), res.Reason, len(res.Trace))
	if *outFile != "" {
		if err := trace.WriteArtifactFile(*outFile, rep.Artifact); err != nil {
			return err
		}
		fmt.Println("artifact:", *outFile)
	}
	if rep.VerdictErr != nil {
		return fmt.Errorf("specification violated: %w", rep.VerdictErr)
	}
	if rep.ReplayErr != nil {
		return fmt.Errorf("cross-engine replay: %w", rep.ReplayErr)
	}
	if !rep.Fair {
		fmt.Println("safety clauses only: the partition never healed")
	}
	fmt.Println("specification satisfied; the live trace replays byte-identically")
	return nil
}

func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	telFlags := telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: chaos replay [flags] ARTIFACT.json")
	}
	tel, flush, err := telFlags.Init()
	if err != nil {
		return err
	}
	defer flush()
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	a, err := trace.ReadArtifact(f)
	if err != nil {
		return err
	}
	var instrument func(*chaos.Built) func() error
	if tel != nil {
		instrument = chaos.TelemetryHook(tel)
		if reg, ok := tel.(*telemetry.Registry); ok {
			reg.Trace().SetMeta("artifact", fs.Arg(0))
		}
	}
	v, err := chaos.ReplayInstrumented(a, instrument)
	if err != nil {
		return err
	}
	fmt.Printf("%s: replayed %d steps deterministically\n", a.Target, v.Steps)
	if v.Failed() {
		fmt.Println("reproduced violation:", v.Err)
	} else {
		fmt.Println("run satisfies the specification (as recorded)")
	}
	return nil
}

func runSurvey(args []string) error {
	fs := flag.NewFlagSet("survey", flag.ContinueOnError)
	var (
		n       = fs.Int("n", 4, "number of locations")
		seeds   = fs.Int("seeds", 1, "random-scheduler seeds per cell")
		steps   = fs.Int("steps", 0, "step bound per run (0 = default)")
		workers = fs.Int("workers", 4, "parallel cells")
		short   = fs.Bool("short", false, "CI grid: fewer scenarios and targets")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := chaos.SurveyConfig{N: *n, Seeds: *seeds, Steps: *steps, Workers: *workers}
	if *short {
		if cfg.Steps <= 0 {
			cfg.Steps = 1200
		}
		cfg.Targets = chaos.SurveyShortTargets()
		cfg.Scenarios = chaos.SurveyShortScenarios(*n, cfg.Steps)
	}
	rep, err := chaos.Survey(cfg)
	if err != nil {
		return err
	}
	fmt.Print(rep.Table())
	if !rep.Clean() {
		return fmt.Errorf("survey not clean: an oracle or replay disagreed (see INFRA rows)")
	}
	if err := rep.Control(); err != nil {
		return err
	}
	fmt.Println("survey clean: every cell's oracle-instrumented run and artifact replay agree; controls hold")
	return nil
}
