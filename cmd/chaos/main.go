// Command chaos drives the fault-injection harness of internal/chaos:
// randomized fault plans and adversarial schedules swept against the
// repository's specification checkers, with failing runs shrunk to minimal
// reproducers and written as replayable JSON artifacts.
//
// Subcommands:
//
//	chaos sweep  [-n 3] [-t -1] [-seeds 8] [-plans 0] [-steps 0]
//	             [-targets LIST] [-scheds rr,random,lifo] [-out DIR]
//	    Sweep targets × schedulers × seeds × fault plans, every run and
//	    every shrink candidate under a stride-1 differential oracle
//	    (package oracle); shrink and report every failure as SPEC (the
//	    target's checker) or DIVERGENCE (an engine disagreed with its
//	    reference), writing one artifact per failure to -out.
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
//	    verdict and trace exactly.  A live artifact has no schedule to
//	    re-execute: its trace is replayed through the simulated engine
//	    and its recorded verdict reported.
//
//	chaos check  [-fd FAMILY | -problem consensus [-f 1]] [-window 1]
//	             [-prefix] [-complete=true] [-list] ARTIFACT.json
//	    Check an artifact's trace against a named specification: any AFD
//	    of the Section-3.3 zoo, or the consensus problem of Section 9.1
//	    (a trace without proposals is refused).  The location count is
//	    the artifact's; -list names the families.
//
//	chaos explain -why i:j [-at STEP] [-removed] [-json] [-trace FILE]
//	             [-qos] ARTIFACT.json
//	    Answer "why does observer i suspect j?": rebuild the
//	    happens-before DAG by re-executing the trace under the stride-1
//	    oracle — every send→deliver edge cross-checked against the channel
//	    shadows and the artifact's NetLog — and print the minimal causal
//	    chain from the suspicion's origin to the FD-output transition that
//	    added j (with -removed, removed it) at or nearest before -at.
//	    -json emits the verification, explanation and QoS as one record;
//	    -trace writes a Chrome trace with the chain as flow arrows; -qos
//	    appends per-family QoS.  Exits non-zero when the artifact cannot
//	    be rebuilt, a cross-check disagrees, or no such transition exists.
//
//	chaos survey [-n 4] [-seeds 1] [-steps 0] [-short]
//	    Sweep the property-survival grid: scenarios (topologies, loss
//	    rates, partitions) × message-passing targets, every run under a
//	    stride-1 differential oracle with its artifact replayed
//	    bit-for-bit.  Prints the survival table; exits non-zero unless the
//	    grid is clean and both controls hold.
//
// Examples:
//
//	chaos sweep
//	chaos sweep -seeds 2 -plans 3 -steps 1200 -targets detector:slanderer -out /tmp/artifacts
//	chaos run -target consensus:FD-Ω -n 5 -crash 1,3 -sched lifo -seed 7
//	chaos run -target gossip:FD-Q>FD-P -n 4 -crash 1 -topo ring
//	chaos run -target nbac@101 -crash 2 -crash-after 30
//	chaos live -target urb:P -crash 1 -transport tcp
//	chaos replay /tmp/artifacts/fail-0.json
//	chaos run -target 'gossip:FD-◇Q>FD-◇P' -n 4 -crash 3 -out /tmp/run.json
//	chaos check -fd FD-◇P /tmp/run.json
//	chaos explain -why 0:3 -qos /tmp/run.json
//	chaos survey -short
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/afd"
	"repro/internal/causal"
	"repro/internal/chaos"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/live"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine is the line main prints for a failed command: the error under
// one "chaos: " prefix, which internal/chaos errors already carry.
func errorLine(err error) string {
	msg := err.Error()
	if !strings.HasPrefix(msg, "chaos: ") {
		msg = "chaos: " + msg
	}
	return msg
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: chaos sweep|run|live|replay|check|explain|survey [flags]")
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
	case "check":
		return runCheck(args[1:])
	case "explain":
		return runExplain(args[1:])
	case "survey":
		return runSurvey(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want sweep, run, live, replay, check, explain, or survey)", args[0])
	}
}

// readArtifact reads the artifact file that is fs's one positional argument.
func readArtifact(fs *flag.FlagSet) (*trace.Artifact, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("usage: chaos %s [flags] ARTIFACT.json", fs.Name())
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadArtifact(f)
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
		plans    = fs.Int("plans", 0, "cap on fault plans per target (0 = all subsets)")
		steps    = fs.Int("steps", 0, "step bound per run (0 = default)")
		targets  = fs.String("targets", "", "comma-separated target IDs (default Ω, ◇P, consensus:Ω)")
		scheds   = fs.String("scheds", "", "comma-separated schedulers: rr,random,lifo (default all)")
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
		Targets:    ts,
		N:          *n,
		MaxT:       *maxT,
		Seeds:      *seeds,
		Steps:      *steps,
		Scheds:     schedList,
		MaxPlans:   *plans,
		Instrument: chaos.OracleHook(tel),
		Telemetry:  tel,
	})
	for _, e := range rep.Errors {
		fmt.Println("  error:", e)
	}
	divergences := 0
	for i, f := range rep.Failures {
		kind := "SPEC"
		if chaos.IsDivergence(f.Err) {
			kind = "DIVERGENCE"
			divergences++
		}
		fmt.Printf("  %s %s sched=%s seed=%d steps=%d plan=%v\n       %v\n",
			kind, f.Run.Target.ID(), f.Run.Sched, f.Run.Seed, f.Steps, f.Run.Plan, f.Err)
		if *outDir != "" {
			path := filepath.Join(*outDir, fmt.Sprintf("fail-%d.json", i))
			if err := trace.WriteArtifactFile(path, f.Artifact()); err != nil {
				return err
			}
			fmt.Println("       artifact:", path)
		}
	}
	fmt.Printf("%s (%d spec, %d divergences)\n", rep.Summary(), len(rep.Failures)-divergences, divergences)
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
		printQoS(causal.Compute(v.Trace, nil))
	}
	if *outFile != "" {
		a := v.Artifact()
		// Cross-link artifact and Chrome trace both ways when both exist.
		if telFlags.TraceOut != "" {
			a.TraceRef = telFlags.TraceOut
			tel.Trace().SetMeta("artifact", *outFile)
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
	a, err := readArtifact(fs)
	if err != nil {
		return err
	}
	tel, flush, err := telFlags.Init()
	if err != nil {
		return err
	}
	defer flush()
	var instrument func(*chaos.Built) func() error
	if tel != nil {
		instrument = chaos.TelemetryHook(tel)
		tel.Trace().SetMeta("artifact", fs.Arg(0))
	}
	v, err := chaos.ReplayInstrumented(a, instrument)
	if err != nil {
		return err
	}
	violation := "reproduced violation:"
	if a.Sched == chaos.SchedLive {
		fmt.Printf("%s: the live trace of %d events replays byte-identically through the simulated engine\n", a.Target, len(a.Trace))
		violation = "recorded violation:"
	} else {
		fmt.Printf("%s: replayed %d steps deterministically\n", a.Target, v.Steps)
	}
	if v.Failed() {
		fmt.Println(violation, v.Err)
	} else {
		fmt.Println("run satisfies the specification (as recorded)")
	}
	return nil
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	var (
		family   = fs.String("fd", "", "failure-detector family to check against")
		problem  = fs.String("problem", "", "problem to check against: consensus")
		f        = fs.Int("f", 1, "crash bound for -problem consensus")
		window   = fs.Int("window", 1, "stable-suffix window (outputs per live location)")
		prefix   = fs.Bool("prefix", false, "prefix mode: enforce only safety clauses (refutable on a prefix)")
		complete = fs.Bool("complete", true, "treat the trace as a complete run (termination enforced)")
		list     = fs.Bool("list", false, "list known detector families and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, fam := range afd.Families(1) { // the names do not depend on n
			fmt.Println(fam)
		}
		return nil
	}
	if *family == "" && *problem != "consensus" {
		return fmt.Errorf("one of -fd or -problem consensus is required (or -list)")
	}
	a, err := readArtifact(fs)
	if err != nil {
		return err
	}
	tr, n := a.Trace, a.N
	fmt.Printf("%d events read (%s, n=%d)\n", len(tr), a.Target, n)
	if *family != "" {
		d, err := afd.Lookup(*family, n)
		if err != nil {
			return err
		}
		w := afd.Window{MinOutputsPerLive: *window, MinStableOutputs: *window, Prefix: *prefix}
		if err := d.Check(trace.FD(tr, *family), n, w); err != nil {
			return fmt.Errorf("trace ∉ T(%s): %w", *family, err)
		}
		fmt.Printf("trace ∈ T(%s)\n", *family)
		return nil
	}
	proj := consensus.ProjectIO(tr)
	proposals := trace.Count(proj, func(a ioa.Action) bool {
		return a.Kind == ioa.KindEnvIn && a.Name == system.ActNamePropose
	})
	if proposals == 0 {
		// §9.1's clauses all speak of proposed values: on a trace without
		// proposals they hold vacuously, whatever the system did.
		return fmt.Errorf("the %s artifact records no propose event: not a consensus run", a.Target)
	}
	if err := (consensus.Spec{N: n, F: *f}).Check(proj, *complete); err != nil {
		return fmt.Errorf("trace ∉ TP: %w", err)
	}
	fmt.Println("trace ∈ TP (f-crash-tolerant binary consensus)")
	return nil
}

func runExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	var (
		why      = fs.String("why", "", "observer:subject pair, e.g. 0:3 (required)")
		at       = fs.Int("at", -1, "explain the transition at or nearest before this trace step (default: latest)")
		removed  = fs.Bool("removed", false, "explain the suspicion's removal rather than its addition")
		asJSON   = fs.Bool("json", false, "emit machine-readable JSON")
		traceOut = fs.String("trace", "", "write a Chrome trace with the chain as flow arrows")
		qos      = fs.Bool("qos", false, "append QoS analytics to the text output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	observer, subject, err := parseWhy(*why)
	if err != nil {
		return err
	}
	a, err := readArtifact(fs)
	if err != nil {
		return err
	}
	d, err := causal.Build(a)
	if err != nil {
		return fmt.Errorf("rebuilding %s: %w", fs.Arg(0), err)
	}
	tr, err := pickTransition(d, observer, subject, *at, *removed)
	if err != nil {
		return err
	}
	ex, err := d.Explain(*tr, subject)
	if err != nil {
		return err
	}
	if *traceOut != "" {
		if err := writeFlows(*traceOut, d, ex); err != nil {
			return err
		}
	}
	if *asJSON {
		rec := struct {
			Artifact     string              `json:"artifact"`
			Target       string              `json:"target"`
			N            int                 `json:"n"`
			Sched        string              `json:"sched"`
			Verification causal.Verification `json:"verification"`
			Explanation  *causal.Explanation `json:"explanation"`
			QoS          []causal.Stats      `json:"qos"`
		}{fs.Arg(0), a.Target, a.N, a.Sched, d.Verification, ex,
			causal.Compute(d.Events, d.Stamps)}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			return err
		}
	} else {
		printExplanation(a, d, ex)
		if *qos {
			printQoS(causal.Compute(d.Events, d.Stamps))
		}
	}
	if v := d.Verification; !v.Ok() {
		return fmt.Errorf("verification failed: %d/%d message edges confirmed, %d diffs",
			v.VerifiedEdges, v.MessageEdges, len(v.Diffs))
	}
	return nil
}

func parseWhy(s string) (observer, subject ioa.Loc, err error) {
	i, j, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("-why wants observer:subject, got %q", s)
	}
	oi, err1 := strconv.Atoi(i)
	sj, err2 := strconv.Atoi(j)
	if err1 != nil || err2 != nil || oi < 0 || sj < 0 {
		return 0, 0, fmt.Errorf("-why wants two non-negative integers, got %q", s)
	}
	return ioa.Loc(oi), ioa.Loc(sj), nil
}

// pickTransition selects the transition to explain: the latest FD output of
// observer that adds (or, with removed, removes) subject at or before step
// at; at < 0 means anywhere in the trace.
func pickTransition(d *causal.DAG, observer, subject ioa.Loc, at int, removed bool) (*causal.Transition, error) {
	trs := d.Transitions()
	var pick *causal.Transition
	for i := range trs {
		tr := &trs[i]
		if tr.Observer != observer {
			continue
		}
		if at >= 0 && tr.Event > at {
			break
		}
		set := tr.Added
		if removed {
			set = tr.Removed
		}
		if slices.Contains(set, subject) {
			pick = tr
		}
	}
	if pick == nil {
		verb := "added"
		if removed {
			verb = "removed"
		}
		window := ""
		if at >= 0 {
			window = fmt.Sprintf(" by step %d", at)
		}
		return nil, fmt.Errorf("observer %d never %s suspicion of %d%s",
			observer, verb, subject, window)
	}
	return pick, nil
}

func printExplanation(a *trace.Artifact, d *causal.DAG, ex *causal.Explanation) {
	verb := "started suspecting"
	if !ex.Added {
		verb = "stopped suspecting"
	}
	fmt.Printf("%s (n=%d, sched=%s): observer %d %s %d at step %d [%s]\n",
		a.Target, a.N, a.Sched, ex.Transition.Observer, verb, ex.Subject,
		ex.Transition.Event, ex.Transition.Family)
	if ex.OriginIsCrash {
		fmt.Printf("rooted in the subject's crash (event %d); causal cone: %d events\n",
			ex.Origin, ex.ConeSize)
	} else {
		fmt.Printf("NOT rooted in a crash of %d (a timing mistake or refutation); causal cone: %d events\n",
			ex.Subject, ex.ConeSize)
	}
	fmt.Printf("minimal chain (%d links):\n", len(ex.Chain))
	for _, link := range ex.Chain {
		stamp := ""
		if link.StampNs >= 0 {
			stamp = fmt.Sprintf("  @%.3fms", float64(link.StampNs)/1e6)
		}
		fmt.Printf("  [%5d] loc %-3d %s%s\n", link.Event, link.Loc, link.Action, stamp)
		if link.EdgeToNext != "" {
			mark := "✓"
			if !link.EdgeVerified {
				mark = "✗ UNVERIFIED"
			}
			fmt.Printf("          └─%s─▶ %s\n", link.EdgeToNext, mark)
		}
	}
	v := d.Verification
	status := "OK"
	if !v.Ok() {
		status = "FAILED"
	}
	fmt.Printf("verification %s: %d/%d message edges oracle-confirmed, %d oracle events, %d diffs\n",
		status, v.VerifiedEdges, v.MessageEdges, v.OracleEvents, len(v.Diffs))
	for _, diff := range v.Diffs {
		fmt.Printf("  diff: %s\n", diff)
	}
}

// printQoS prints one line of QoS analytics per detector family.
func printQoS(stats []causal.Stats) {
	if len(stats) == 0 {
		fmt.Println("qos: no FD outputs in the trace")
		return
	}
	for _, s := range stats {
		fmt.Printf("qos %s: %d observers, %d detections (mean %.1f / max %d steps), propagation %d steps, %d mistakes",
			s.Family, s.Observers, len(s.Detections),
			s.DetectionMeanSteps, s.DetectionMaxSteps, s.PropagationSteps, s.MistakeCount)
		if s.MistakeCount > 0 {
			fmt.Printf(" (mean %.1f / max %d steps)", s.MistakeMeanSteps, s.MistakeMaxSteps)
		}
		if s.DetectionMaxNs > 0 {
			fmt.Printf("; wall-clock detection mean %.3fms max %.3fms",
				s.DetectionMeanNs/1e6, float64(s.DetectionMaxNs)/1e6)
		}
		fmt.Println()
	}
}

// writeFlows renders the chain into a Chrome-trace JSON: instants on each
// involved location's track plus flow arrows across every message edge.
func writeFlows(path string, d *causal.DAG, ex *causal.Explanation) error {
	reg := telemetry.NewRegistry()
	causal.EmitFlows(reg, d, ex)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Trace().WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runSurvey(args []string) error {
	fs := flag.NewFlagSet("survey", flag.ContinueOnError)
	var (
		n     = fs.Int("n", 4, "number of locations")
		seeds = fs.Int("seeds", 1, "random-scheduler seeds per cell")
		steps = fs.Int("steps", 0, "step bound per run (0 = default)")
		short = fs.Bool("short", false, "CI grid: fewer scenarios and targets")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := chaos.SurveyConfig{N: *n, Seeds: *seeds, Steps: *steps}
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
