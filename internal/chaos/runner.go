package chaos

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/telemetry"
)

// SweepConfig configures a chaos sweep: the cartesian product of targets ×
// schedulers × seeds × enumerated fault plans, each run with independently
// sampled gate parameters.
type SweepConfig struct {
	// Targets under test; empty defaults to DefaultTargets().
	Targets []Target
	// N is the number of locations, 1..system.MaxLocs.
	N int
	// MaxT caps crashes per plan; it is additionally clamped to each
	// target's MaxT.  Negative means "target's maximum".
	MaxT int
	// Seeds runs seeds 0..Seeds-1 per (target, scheduler, plan); at least 1.
	Seeds int
	// Steps is the per-run step bound (0 = DefaultSteps(N)).
	Steps int
	// Scheds lists scheduler kinds to sweep (default Schedulers()).
	Scheds []string
	// MaxPlans, when positive, keeps only the first MaxPlans fault plans
	// of system.PlanSubsets per target.  Without it a grid of more than
	// maxSweepPlans plans per target is refused.
	MaxPlans int
	// Instrument, when non-nil, is the ExecuteInstrumented hook of every
	// run and every shrink candidate — OracleHook, say, so a candidate
	// reproduces a divergence only when the same clause fires again.  The
	// workers call it concurrently.
	Instrument func(*Built) func() error
	// Telemetry, when non-nil, counts executed runs (CChaosRuns) and
	// specification failures (CChaosFailures) and records one chaos-category
	// span per run (named by target ID, tid = worker).  Sweep progress then
	// shows up live on the expvar endpoint instead of only in the final
	// Report.  Per-run system internals are NOT wired — a sweep's runs
	// execute concurrently and would interleave meaninglessly; use
	// ExecuteInstrumented with TelemetryHook to deep-instrument one run.
	// Shrink candidates are not counted.
	Telemetry *telemetry.Registry
}

// DefaultTargets is the standard sweep: the Ω and ◇P detectors and
// consensus over Ω.
func DefaultTargets() []Target {
	return []Target{
		DetectorTarget{Family: "FD-Ω"},
		DetectorTarget{Family: "FD-◇P"},
		lookup("consensus:FD-Ω"),
	}
}

func (c SweepConfig) withDefaults() SweepConfig {
	if len(c.Targets) == 0 {
		c.Targets = DefaultTargets()
	}
	if len(c.Scheds) == 0 {
		c.Scheds = Schedulers()
	}
	return c
}

// Report summarizes a sweep.
type Report struct {
	// Runs is the number of executions performed.
	Runs int
	// Failures holds one shrunk verdict per failing run, sorted by
	// (target, scheduler, seed) and, where those tie, in run order.
	Failures []Verdict
	// Errors holds infrastructure errors (an N or Seeds out of range,
	// unbuildable targets, unknown schedulers) — always empty for
	// well-formed configs.
	Errors []error
	// ShrinkTries counts candidate executions spent shrinking.
	ShrinkTries int
}

// maxSweepPlans bounds the fault plans an uncapped sweep enumerates per
// target.  It sits far above every grid in use (at most 7 plans per
// target) and far below the 2^(n-1) plans a detector target asks for at
// large n.
const maxSweepPlans = 1 << 12

// plansExceed reports whether an unlimited PlanSubsets(n, maxT, 0)
// enumerates more than bound plans: the count sum_{k<=maxT} C(n,k),
// saturating at bound+1.
func plansExceed(n, maxT, bound int) bool {
	total, c := 0, 1 // c = C(n, k); c <= total <= bound before each product
	for k := 0; k <= maxT && k <= n; k++ {
		if total += c; total > bound {
			return true
		}
		c = c * (n - k) / (k + 1)
	}
	return false
}

// checkGrid refuses a grid over N outside 1..system.MaxLocs or with Seeds
// below 1, rather than run a substituted default.
func checkGrid(n, seeds int) error {
	if n < 1 || n > system.MaxLocs {
		return fmt.Errorf("chaos: n=%d outside 1..%d", n, system.MaxLocs)
	}
	if seeds < 1 {
		return fmt.Errorf("chaos: seeds=%d, want at least 1", seeds)
	}
	return nil
}

// parallel calls do(worker, i) once for every i in 0..n-1 on GOMAXPROCS
// goroutines, worker naming the goroutine, and returns once every call has
// returned.  A grid's runs are independent, so do writes only slot i of its
// caller's outcomes, and the caller reads them in run order afterwards,
// whatever order the runs finished in.
func parallel(n int, do func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// Sweep executes the configured cartesian product in parallel, shrinks
// every specification violation to a minimal reproducer, and collects the
// reproducers.  Runs are independent — each builds a fresh system with
// freshly compiled gates — so the sweep is embarrassingly parallel and
// race-free, and its report is built in run order once every run has
// finished.  An N outside 1..system.MaxLocs, a Seeds below 1, or an
// uncapped grid of more than maxSweepPlans fault plans per target runs
// nothing and is reported in Errors.
func Sweep(cfg SweepConfig) *Report {
	if err := checkGrid(cfg.N, cfg.Seeds); err != nil {
		return &Report{Errors: []error{err}}
	}
	cfg = cfg.withDefaults()

	var runs []Run
	for _, target := range cfg.Targets {
		maxT := target.MaxT(cfg.N)
		if cfg.MaxT >= 0 && cfg.MaxT < maxT {
			maxT = cfg.MaxT
		}
		if cfg.MaxPlans <= 0 && plansExceed(cfg.N, maxT, maxSweepPlans) {
			return &Report{Errors: []error{fmt.Errorf("chaos: sweep -t %d at n=%d enumerates more than %d fault plans for %s; lower -t",
				maxT, cfg.N, maxSweepPlans, target.ID())}}
		}
		plans := system.PlanSubsets(cfg.N, maxT, cfg.MaxPlans)
		for _, schedKind := range cfg.Scheds {
			for seed := 0; seed < cfg.Seeds; seed++ {
				for pi, plan := range plans {
					// Gate parameters are sampled from a PRNG keyed by
					// (seed, plan index) so every run in the product sees a
					// different — but reproducible — adversary.  The sampled
					// values land in the Run (and any artifact); the
					// sampling stream itself is never needed again.
					grng := sched.NewPRNG(int64(seed)<<20 | int64(pi)<<1 | boolBit(schedKind == SchedLIFO))
					steps := cfg.Steps
					if steps <= 0 {
						steps = DefaultSteps(cfg.N)
					}
					runs = append(runs, Run{
						Target: target,
						N:      cfg.N,
						Plan:   plan,
						Gates:  SampleGates(grng, cfg.N, steps),
						Sched:  schedKind,
						Seed:   int64(seed),
						Steps:  cfg.Steps,
					})
				}
			}
		}
	}
	exec := func(r Run) (Verdict, error) { return ExecuteInstrumented(r, cfg.Instrument) }

	// outs[i] is run i's outcome: an infrastructure error, or a shrunk
	// failing verdict and the candidates its shrink executed.
	type outcome struct {
		err     error
		failure Verdict // zero when the run passed
		tries   int
	}
	outs := make([]outcome, len(runs))
	parallel(len(runs), func(worker, i int) {
		r := runs[i]
		t0 := cfg.Telemetry.Now()
		v, err := exec(r)
		if cfg.Telemetry != nil { // the span's name builds the target ID
			cfg.Telemetry.Count(telemetry.CChaosRuns, 1)
			cfg.Telemetry.Span(telemetry.CatChaos, r.Target.ID(), t0, int32(worker), int64(v.Steps))
			if err == nil && v.Failed() {
				cfg.Telemetry.Count(telemetry.CChaosFailures, 1)
			}
		}
		switch {
		case err != nil:
			outs[i].err = err
		case v.Failed():
			outs[i].failure, outs[i].tries = ShrinkWith(v, exec)
		}
	})

	report := &Report{Runs: len(runs)}
	for _, o := range outs {
		switch {
		case o.err != nil:
			report.Errors = append(report.Errors, o.err)
		case o.failure.Failed():
			report.Failures = append(report.Failures, o.failure)
			report.ShrinkTries += o.tries
		}
	}
	sort.SliceStable(report.Failures, func(i, j int) bool {
		a, b := report.Failures[i].Run, report.Failures[j].Run
		if a.Target.ID() != b.Target.ID() {
			return a.Target.ID() < b.Target.ID()
		}
		if a.Sched != b.Sched {
			return a.Sched < b.Sched
		}
		return a.Seed < b.Seed
	})
	return report
}

func boolBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Summary renders a one-line human-readable sweep outcome.
func (r *Report) Summary() string {
	if len(r.Errors) > 0 {
		return fmt.Sprintf("%d runs, %d failures, %d infrastructure errors",
			r.Runs, len(r.Failures), len(r.Errors))
	}
	return fmt.Sprintf("%d runs, %d failures", r.Runs, len(r.Failures))
}
