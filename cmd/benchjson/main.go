// Command benchjson measures the E1 event-throughput experiment (the
// Figure-1 composition of EXPERIMENTS.md driven to a fixed step budget) and
// the E10 valence-exploration throughput (BenchmarkValence* configurations,
// at one worker and at several), and writes the results as JSON.  CI runs it on
// every pull request and uploads the file as the BENCH_pr artifact so
// throughput regressions across PRs are a download-and-diff away; with
// -baseline it additionally gates on a committed report (exit 1 when any
// matching row regresses by more than -tolerance).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/afd"
	"repro/internal/causal"
	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/live"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/valence"
)

// repStats summarizes the per-repetition wall times and allocation counts of
// one benchmark row: the best (minimum) time — the least-noise estimator on a
// shared box — plus mean and sample standard deviation so a reader can judge
// how much the best is luck, and the mean mallocs per unit of work.
type repStats struct {
	NsBest      int64   `json:"ns_best"`
	NsMean      float64 `json:"ns_mean"`
	NsStddev    float64 `json:"ns_stddev"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// summarize folds per-rep (nanoseconds, allocs/op) samples into repStats.
func summarize(ns []int64, allocs []float64) repStats {
	st := repStats{NsBest: ns[0]}
	var sum float64
	for _, v := range ns {
		if v < st.NsBest {
			st.NsBest = v
		}
		sum += float64(v)
	}
	mean := sum / float64(len(ns))
	st.NsMean = mean
	if len(ns) > 1 {
		var ss float64
		for _, v := range ns {
			d := float64(v) - mean
			ss += d * d
		}
		st.NsStddev = math.Sqrt(ss / float64(len(ns)-1))
	}
	for _, a := range allocs {
		st.AllocsPerOp += a
	}
	st.AllocsPerOp /= float64(len(allocs))
	return st
}

// mallocs returns the process-wide cumulative malloc count; successive
// deltas around a run give its allocation cost (GC-independent: Mallocs
// never decreases).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sizeResult is the E1 row for one system size.
type sizeResult struct {
	N      int `json:"n"`
	Events int `json:"events"`
	repStats
	EventsPerSec float64 `json:"events_per_sec"`
}

// valenceResult is one E10 exploration-throughput row.  Each configuration
// is measured unreduced and with dynamic partial-order reduction; reduced
// rows additionally record how many enabled transitions the ample sets
// pruned and the node-count ratio against the matching unreduced row — the
// reduction's deterministic figure of merit, gated like throughput.
type valenceResult struct {
	Config            string  `json:"config"`
	Workers           int     `json:"workers"` // 0 = GOMAXPROCS
	Reduce            bool    `json:"reduce,omitempty"`
	Nodes             int     `json:"nodes"`
	Edges             int     `json:"edges"`
	PrunedTransitions int     `json:"pruned_transitions,omitempty"`
	ReductionRatio    float64 `json:"reduction_ratio,omitempty"` // full nodes / reduced nodes
	repStats
	NodesPerSec float64 `json:"nodes_per_sec"`
}

// liveResult is one live-runtime row: the gossip ◇Q>◇P stack driven on real
// goroutines over the in-process transport, with one planned crash.  Two
// figures matter: raw event throughput (how fast the step lock serializes a
// real concurrent execution) and the heartbeat-to-suspicion latency — the
// wall-clock gap between the crash event and the earliest permanent
// boosted-family suspicion of the crashed location (causal.Compute's
// detection), i.e. the physical realization of the failure-detector
// abstraction's detection time.
type liveResult struct {
	N            int     `json:"n"`
	Target       string  `json:"target"`
	Transport    string  `json:"transport"`
	Events       int     `json:"events"`
	NsBest       int64   `json:"ns_best"`
	NsMean       float64 `json:"ns_mean"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Suspicion latencies in wall-clock nanoseconds, best and mean across
	// reps; -1 when no rep realized a suspicion (never observed in practice
	// — the checker would have rejected the run first).
	SuspicionNsBest int64   `json:"suspicion_ns_best"`
	SuspicionNsMean float64 `json:"suspicion_ns_mean"`
}

// qosResult is one detector-QoS analytics row: causal.Compute over every
// repetition's recorded trace, aggregated per family by causal.Summarize.
// Three modes share the schema: "sim" (size sweep under the randomized
// simulator scheduler), "grid" (the E19 chaos cells: drop rate × topology at
// fixed n), and "live" (real goroutines, wall-clock stamped, per transport —
// the only mode with Ns figures).
type qosResult struct {
	Mode      string `json:"mode"`
	N         int    `json:"n"`
	Target    string `json:"target"`
	Sched     string `json:"sched,omitempty"`
	Transport string `json:"transport,omitempty"`
	Topo      string `json:"topo,omitempty"`
	Drop      int    `json:"drop_permille,omitempty"`
	// SpecViolations counts repetitions whose checker verdict failed — under
	// heavy loss plain gossip legitimately loses strong completeness (the
	// E17 survival result), and the QoS of the surviving detections is
	// exactly what the row measures.
	SpecViolations int              `json:"spec_violations,omitempty"`
	Families       []causal.Summary `json:"families"`
}

// report is the BENCH_pr.json schema.
type report struct {
	Experiment string          `json:"experiment"`
	GoVersion  string          `json:"go_version"`
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	Steps      int             `json:"steps"`
	Reps       int             `json:"reps"`
	Sizes      []sizeResult    `json:"sizes"`
	Valence    []valenceResult `json:"valence"`
	// Live rows are recorded for cross-PR eyeballing but deliberately NOT
	// gated by checkBaseline: they measure wall-clock behavior of real
	// goroutines and timers, whose variance on shared CI boxes dwarfs any
	// tolerance a useful gate could use.
	Live []liveResult `json:"live,omitempty"`
	// QoS rows are analytics, not timings: detection latency, mistake rate,
	// and propagation spread are properties of the recorded traces, so they
	// are reported for cross-PR comparison but not gated (schedule- and
	// wall-clock-dependent distributions, not deterministic figures).
	QoS []qosResult `json:"qos,omitempty"`
	// Telemetry is a metric snapshot from one fully instrumented pass (E1
	// n=8 with an attached differential oracle, plus one telemetered valence
	// exploration) run AFTER the timed reps above, so the timings stay
	// un-instrumented while the report still records events applied, oracle
	// sweep counts and latencies, channel-depth distribution, and the
	// valence frontier peak for cross-PR comparison.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

func run(n, steps int) (events int, elapsed time.Duration, allocs uint64, err error) {
	d, err := afd.Lookup(afd.FamilyP, n)
	if err != nil {
		return 0, 0, 0, err
	}
	autos := []ioa.Automaton{d.Automaton(n)}
	autos = append(autos, system.Channels(n)...)
	autos = append(autos, system.NewCrash(system.NoFaults()))
	sys, err := ioa.NewSystem(autos...)
	if err != nil {
		return 0, 0, 0, err
	}
	// Throughput, not trace content: leaving the default TraceAll on would
	// append (and allocate) one Action per event, measuring the trace
	// buffer instead of the engine.
	sys.SetTraceMode(ioa.TraceOff, 0)
	m0 := mallocs()
	start := time.Now()
	sched.RoundRobin(sys, sched.Options{MaxSteps: steps})
	return sys.Steps(), time.Since(start), mallocs() - m0, nil
}

// liveSuspicion is the wall-clock nanoseconds from the crash to the
// earliest permanent suspicion of it by any family observer — the smallest
// Detection.Ns causal.Compute derives from the stamped record — or -1 when
// the record has no detection.
func liveSuspicion(res live.Result, family string) int64 {
	best := int64(-1)
	for _, st := range causal.Compute(res.Trace, res.Stamps) {
		if st.Family != family {
			continue
		}
		for _, d := range st.Detections {
			if best < 0 || d.Ns < best {
				best = d.Ns
			}
		}
	}
	return best
}

// liveRow measures one live-runtime row: reps full live executions of the
// gossip ◇Q>◇P stack at size n on the in-process transport, each crashing
// location n-1 shortly after start, each checker-judged and replay-validated
// (a row from an invalid execution would be meaningless).
func liveRow(n, reps int) (liveResult, error) {
	target, err := chaos.ParseTarget("gossip:" + afd.FamilyEvQ + ">" + afd.FamilyEvP)
	if err != nil {
		return liveResult{}, err
	}
	row := liveResult{N: n, Target: target.ID(), Transport: "chan", SuspicionNsBest: -1}
	var ns, lat []int64
	for r := 0; r < reps; r++ {
		rep, err := live.RunTarget(live.RunSpec{
			Target: target,
			N:      n,
			Plan:   system.CrashOf(ioa.Loc(n - 1)),
			Opts: live.Options{
				Seed:     int64(r + 1),
				MaxSteps: chaos.DefaultSteps(n),
				Duration: 10 * time.Second,
			},
		})
		if err != nil {
			return row, err
		}
		if rep.VerdictErr != nil {
			return row, fmt.Errorf("live n=%d rep %d: checker rejected: %w", n, r, rep.VerdictErr)
		}
		if rep.ReplayErr != nil {
			return row, fmt.Errorf("live n=%d rep %d: replay diverged: %w", n, r, rep.ReplayErr)
		}
		res := rep.Result
		row.Events = res.Steps
		ns = append(ns, res.Elapsed.Nanoseconds())
		if l := liveSuspicion(res, afd.FamilyEvP); l >= 0 {
			lat = append(lat, l)
		}
	}
	row.NsBest = ns[0]
	var sum float64
	for _, v := range ns {
		if v < row.NsBest {
			row.NsBest = v
		}
		sum += float64(v)
	}
	row.NsMean = sum / float64(len(ns))
	row.EventsPerSec = float64(row.Events) / (float64(row.NsBest) / 1e9)
	if len(lat) > 0 {
		row.SuspicionNsBest = lat[0]
		var lsum float64
		for _, v := range lat {
			if v < row.SuspicionNsBest {
				row.SuspicionNsBest = v
			}
			lsum += float64(v)
		}
		row.SuspicionNsMean = lsum / float64(len(lat))
	}
	return row, nil
}

// gossipQoSTarget is the stack every QoS row drives: the gossiping mesh
// running ◇Q boosted to ◇P at each location — the composition whose
// detection and propagation figures EXPERIMENTS.md E19 plots.
func gossipQoSTarget() (chaos.Target, error) {
	return chaos.ParseTarget("gossip:" + afd.FamilyEvQ + ">" + afd.FamilyEvP)
}

// qosSimRow measures one simulated QoS row: reps runs of the gossip stack at
// size n under the randomized scheduler (seeds 1..reps so the aggregate is a
// distribution, not one schedule), each crashing location n-1.
func qosSimRow(n, reps int) (qosResult, error) {
	target, err := gossipQoSTarget()
	if err != nil {
		return qosResult{}, err
	}
	row := qosResult{Mode: "sim", N: n, Target: target.ID(), Sched: chaos.SchedRandom}
	var all []causal.Stats
	for r := 0; r < reps; r++ {
		v, err := chaos.Execute(chaos.Run{
			Target: target,
			N:      n,
			Plan:   system.CrashOf(ioa.Loc(n - 1)),
			Sched:  chaos.SchedRandom,
			Seed:   int64(r + 1),
		})
		if err != nil {
			return row, err
		}
		if v.Failed() {
			row.SpecViolations++
		}
		all = append(all, causal.Compute(v.Trace, nil)...)
	}
	row.Families = causal.Summarize(all)
	return row, nil
}

// qosGridRow measures one E19 chaos cell: reps runs at n=4 over the named
// topology with the given per-link drop rate, varying both scheduler and
// link seeds per rep.
func qosGridRow(topoName string, drop, reps int) (qosResult, error) {
	const n = 4
	target, err := gossipQoSTarget()
	if err != nil {
		return qosResult{}, err
	}
	row := qosResult{Mode: "grid", N: n, Target: target.ID(),
		Sched: chaos.SchedRandom, Topo: topoName, Drop: drop}
	var all []causal.Stats
	for r := 0; r < reps; r++ {
		topo, err := system.ParseTopology(n, topoName)
		if err != nil {
			return row, err
		}
		net := system.NetSpec{Topo: topo, Drop: drop}
		if net.Lossy() {
			net.Seed = int64(r + 1)
		}
		v, err := chaos.Execute(chaos.Run{
			Target: target,
			N:      n,
			Plan:   system.CrashOf(n - 1),
			Net:    net,
			Sched:  chaos.SchedRandom,
			Seed:   int64(r + 1),
		})
		if err != nil {
			return row, err
		}
		if v.Failed() {
			row.SpecViolations++
		}
		all = append(all, causal.Compute(v.Trace, nil)...)
	}
	row.Families = causal.Summarize(all)
	return row, nil
}

// qosLiveRow measures one live QoS row: reps checker-judged, replay-validated
// live executions at n=4 on the named transport, QoS computed from the
// stamped traces so detection and propagation carry wall-clock figures.
func qosLiveRow(transport string, reps int) (qosResult, error) {
	const n = 4
	target, err := gossipQoSTarget()
	if err != nil {
		return qosResult{}, err
	}
	row := qosResult{Mode: "live", N: n, Target: target.ID(), Transport: transport}
	var all []causal.Stats
	for r := 0; r < reps; r++ {
		opts := live.Options{
			Seed:     int64(r + 1),
			MaxSteps: chaos.DefaultSteps(n),
			Duration: 10 * time.Second,
		}
		if transport == "tcp" {
			tr, err := live.NewTCPTransport()
			if err != nil {
				return row, err
			}
			opts.Transport = tr
		}
		rep, err := live.RunTarget(live.RunSpec{
			Target: target,
			N:      n,
			Plan:   system.CrashOf(n - 1),
			Opts:   opts,
		})
		if err != nil {
			return row, err
		}
		if rep.VerdictErr != nil {
			return row, fmt.Errorf("qos live %s rep %d: checker rejected: %w", transport, r, rep.VerdictErr)
		}
		if rep.ReplayErr != nil {
			return row, fmt.Errorf("qos live %s rep %d: replay diverged: %w", transport, r, rep.ReplayErr)
		}
		all = append(all, causal.Compute(rep.Result.Trace, rep.Result.Stamps)...)
	}
	row.Families = causal.Summarize(all)
	return row, nil
}

// qosSection assembles the full QoS table: the size sweep, the E19
// drop-rate × topology grid, and both live transports.
func qosSection(reps int) ([]qosResult, error) {
	var rows []qosResult
	for _, n := range []int{4, 8, 16, 32} {
		row, err := qosSimRow(n, reps)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for _, topo := range []string{"full", "ring"} {
		for _, drop := range []int{0, 150, 300} {
			row, err := qosGridRow(topo, drop, reps)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	for _, transport := range []string{"chan", "tcp"} {
		row, err := qosLiveRow(transport, reps)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// boosted returns the row's summary for the boosted family (the detector the
// stack ultimately provides), which the progress line reports.
func boosted(row qosResult) causal.Summary {
	for _, s := range row.Families {
		if s.Family == afd.FamilyEvP {
			return s
		}
	}
	return causal.Summary{}
}

// telemetrySection performs the single instrumented pass feeding the
// report's telemetry section: the E1 composition at n=8 with every plane
// wired (system, channels, scheduler) and a differential oracle attached,
// then one valence exploration reporting frontier width.
func telemetrySection(reg *telemetry.Registry, steps int) (*telemetry.Snapshot, error) {
	const n = 8
	d, err := afd.Lookup(afd.FamilyP, n)
	if err != nil {
		return nil, err
	}
	autos := []ioa.Automaton{d.Automaton(n)}
	autos = append(autos, system.Channels(n)...)
	autos = append(autos, system.NewCrash(system.NoFaults()))
	sys, err := ioa.NewSystem(autos...)
	if err != nil {
		return nil, err
	}
	system.Instrument(sys, reg)
	o := oracle.Attach(sys, oracle.Options{Telemetry: reg})
	sched.RoundRobin(sys, sched.Options{MaxSteps: steps, Telemetry: reg})
	if err := o.Check(); err != nil {
		return nil, fmt.Errorf("oracle divergence during telemetry pass: %w", err)
	}
	e, err := valence.New(valence.Config{
		N: 2, Family: afd.FamilyOmega, TD: valence.OmegaTD(2, 6, nil), Telemetry: reg,
	})
	if err != nil {
		return nil, err
	}
	if err := e.Explore(); err != nil {
		return nil, err
	}
	snap := reg.Snapshot()
	return &snap, nil
}

// checkBaseline compares the fresh report against a committed one, row by
// row on the primary throughput metric, and returns the regressions worse
// than tol (0.10 = fail when a row runs >10% slower than the baseline).
// Rows the baseline lacks are new and pass trivially; rows the baseline has
// but the report lacks fail, so a config cannot vanish unnoticed.
func checkBaseline(rep report, path string, tol float64) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{err.Error()}
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	var bad []string
	floor := 1 - tol
	for _, b := range base.Sizes {
		found := false
		for _, s := range rep.Sizes {
			if s.N != b.N {
				continue
			}
			found = true
			if s.EventsPerSec < b.EventsPerSec*floor {
				bad = append(bad, fmt.Sprintf("E1 n=%d: %.0f events/sec, baseline %.0f (-%.1f%%)",
					b.N, s.EventsPerSec, b.EventsPerSec, 100*(1-s.EventsPerSec/b.EventsPerSec)))
			}
		}
		if !found {
			bad = append(bad, fmt.Sprintf("E1 n=%d: missing from report", b.N))
		}
	}
	for _, b := range base.Valence {
		found := false
		for _, v := range rep.Valence {
			if v.Config != b.Config || v.Workers != b.Workers || v.Reduce != b.Reduce {
				continue
			}
			found = true
			if v.NodesPerSec < b.NodesPerSec*floor {
				bad = append(bad, fmt.Sprintf("valence %s workers=%d reduce=%t: %.0f nodes/sec, baseline %.0f (-%.1f%%)",
					b.Config, b.Workers, b.Reduce, v.NodesPerSec, b.NodesPerSec, 100*(1-v.NodesPerSec/b.NodesPerSec)))
			}
			// The reduction ratio is deterministic; any slip below the
			// committed value means ample selection got weaker, which a pure
			// throughput gate would miss.
			if b.ReductionRatio > 0 && v.ReductionRatio < b.ReductionRatio*floor {
				bad = append(bad, fmt.Sprintf("valence %s workers=%d: reduction ratio %.2fx, baseline %.2fx",
					b.Config, b.Workers, v.ReductionRatio, b.ReductionRatio))
			}
		}
		if !found {
			bad = append(bad, fmt.Sprintf("valence %s workers=%d reduce=%t: missing from report", b.Config, b.Workers, b.Reduce))
		}
	}
	return bad
}

func main() {
	out := flag.String("out", "BENCH_pr.json", "output path")
	steps := flag.Int("steps", 100_000, "events per measured run")
	reps := flag.Int("reps", 3, "repetitions per size (best is reported)")
	baseline := flag.String("baseline", "", "committed report to gate against (empty: no gate)")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional regression vs -baseline")
	telFlags := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	reg, flush, err := telFlags.Init()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The telemetry section always runs; the flags only add live serving and
	// a trace file on top of the same registry.
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	rep := report{
		Experiment: "E1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Steps:      *steps,
		Reps:       *reps,
	}
	for _, n := range []int{4, 8, 16, 32} {
		row := sizeResult{N: n}
		var ns []int64
		var allocs []float64
		for r := 0; r < *reps; r++ {
			events, el, mall, err := run(n, *steps)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: n=%d: %v\n", n, err)
				os.Exit(1)
			}
			row.Events = events
			ns = append(ns, el.Nanoseconds())
			allocs = append(allocs, float64(mall)/float64(events))
		}
		row.repStats = summarize(ns, allocs)
		row.EventsPerSec = float64(row.Events) / (float64(row.NsBest) / 1e9)
		rep.Sizes = append(rep.Sizes, row)
		fmt.Printf("n=%-3d %d events in %v ±%v (%.0f events/sec, %.3f allocs/op)\n",
			n, row.Events, time.Duration(row.NsBest), time.Duration(int64(row.NsStddev)),
			row.EventsPerSec, row.AllocsPerOp)
	}
	valenceConfigs := []struct {
		name    string
		workers []int
		cfg     valence.Config
	}{
		{"omega n=2 rounds=6", []int{1, 0}, valence.Config{N: 2, Family: afd.FamilyOmega, TD: valence.OmegaTD(2, 6, nil)}},
		{"perfect s n=2 crash", []int{1, 0}, valence.Config{N: 2, Family: afd.FamilyP, Algo: "s",
			TD: valence.PerfectTD(2, 4, map[ioa.Loc]int{1: 1})}},
		// The E11 acceptance config: the ~830k-edge n=3 golden graph, on
		// the engine at one worker and at four; where four CPUs are free,
		// the pair's ratio is the engine's parallel speedup.
		{"perfect s n=3 crash", []int{1, 4}, valence.Config{N: 3, Family: afd.FamilyP, Algo: "s",
			TD:     valence.PerfectTD(3, 2, map[ioa.Loc]int{2: 1}),
			Values: []int{-1, 1, 1}, MaxNodes: 1_500_000}},
	}
	for _, vc := range valenceConfigs {
		// Unreduced rows run first so the reduced pass of the same config can
		// compute its node-count ratio against them.
		for _, reduce := range []bool{false, true} {
			for _, workers := range vc.workers {
				row := valenceResult{Config: vc.name, Workers: workers, Reduce: reduce}
				var ns []int64
				var allocs []float64
				for r := 0; r < *reps; r++ {
					cfg := vc.cfg
					cfg.Workers = workers
					cfg.Reduce = reduce
					e, err := valence.New(cfg)
					if err != nil {
						fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", vc.name, err)
						os.Exit(1)
					}
					m0 := mallocs()
					start := time.Now()
					if err := e.Explore(); err != nil {
						fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", vc.name, err)
						os.Exit(1)
					}
					el := time.Since(start)
					row.Nodes = e.NumNodes()
					row.Edges = e.NumEdges()
					row.PrunedTransitions = e.Stats().PrunedSteps
					ns = append(ns, el.Nanoseconds())
					allocs = append(allocs, float64(mallocs()-m0)/float64(e.NumNodes()))
				}
				row.repStats = summarize(ns, allocs)
				row.NodesPerSec = float64(row.Nodes) / (float64(row.NsBest) / 1e9)
				if reduce {
					for _, full := range rep.Valence {
						if full.Config == row.Config && !full.Reduce {
							row.ReductionRatio = float64(full.Nodes) / float64(row.Nodes)
							break
						}
					}
				}
				rep.Valence = append(rep.Valence, row)
				extra := ""
				if reduce {
					extra = fmt.Sprintf(", %d pruned, %.2fx reduction", row.PrunedTransitions, row.ReductionRatio)
				}
				fmt.Printf("valence %-22s workers=%-3d reduce=%-5t %d nodes in %v ±%v (%.0f nodes/sec, %.1f allocs/node%s)\n",
					row.Config, workers, reduce, row.Nodes, time.Duration(row.NsBest),
					time.Duration(int64(row.NsStddev)), row.NodesPerSec, row.AllocsPerOp, extra)
			}
		}
	}
	for _, n := range []int{4, 8, 16, 32} {
		row, err := liveRow(n, *reps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: live n=%d: %v\n", n, err)
			os.Exit(1)
		}
		rep.Live = append(rep.Live, row)
		fmt.Printf("live n=%-3d %d events in %v (%.0f events/sec, suspicion %.2fms best / %.2fms mean)\n",
			n, row.Events, time.Duration(row.NsBest), row.EventsPerSec,
			float64(row.SuspicionNsBest)/1e6, row.SuspicionNsMean/1e6)
	}
	qosRows, err := qosSection(*reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: qos: %v\n", err)
		os.Exit(1)
	}
	rep.QoS = qosRows
	for _, row := range qosRows {
		b := boosted(row)
		where := row.Sched
		if row.Mode == "grid" {
			where = fmt.Sprintf("%s drop=%d", row.Topo, row.Drop)
		} else if row.Mode == "live" {
			where = row.Transport
		}
		line := fmt.Sprintf("qos %-4s n=%-3d %-14s %s: %d detections (mean %.1f / max %d steps), propagation mean %.1f steps, %.1f mistakes/run",
			row.Mode, row.N, where, b.Family, b.Detections,
			b.DetectionMeanSteps, b.DetectionMaxSteps, b.PropagationMeanSteps, b.MistakesPerRun)
		if row.SpecViolations > 0 {
			line += fmt.Sprintf(", %d spec violations", row.SpecViolations)
		}
		if b.DetectionMeanNs > 0 {
			line += fmt.Sprintf(", detection %.2fms mean wall-clock", b.DetectionMeanNs/1e6)
		}
		fmt.Println(line)
	}
	snap, err := telemetrySection(reg, *steps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: telemetry pass: %v\n", err)
		os.Exit(1)
	}
	rep.Telemetry = snap
	fmt.Printf("telemetry: %d events applied, %d oracle sweeps, frontier peak %d\n",
		snap.Counters["events_applied"], snap.Counters["oracle_sweeps"],
		snap.Gauges["valence_frontier_peak"])

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	flush()

	if *baseline != "" {
		if bad := checkBaseline(rep, *baseline, *tolerance); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: regression vs %s (tolerance %.0f%%):\n", *baseline, 100**tolerance)
			for _, b := range bad {
				fmt.Fprintf(os.Stderr, "  %s\n", b)
			}
			os.Exit(1)
		}
		fmt.Printf("baseline %s: all rows within %.0f%%\n", *baseline, 100**tolerance)
	}
}
