package chaos

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

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
	// Workers bounds runner goroutines (default GOMAXPROCS).
	Workers int
	// Shrink shrinks every failing run to a minimal reproducer.
	Shrink bool
	// MaxPlans, when positive, keeps only the first MaxPlans fault plans
	// of system.PlanSubsets per target.
	MaxPlans int
	// Instrument, when non-nil, is the ExecuteInstrumented hook of every
	// run and every shrink candidate — an oracle attach, say, so a
	// candidate reproduces a divergence only when the same clause fires
	// again.  The workers call it concurrently.
	Instrument func(*Built) func() error
	// Telemetry, when non-nil, counts executed runs (CChaosRuns) and
	// specification failures (CChaosFailures) and records one chaos-category
	// span per run (named by target ID, tid = worker).  Sweep progress then
	// shows up live on the expvar endpoint instead of only in the final
	// Report.  Per-run system internals are NOT wired — a sweep's runs
	// execute concurrently and would interleave meaninglessly; use
	// ExecuteInstrumented with TelemetryHook to deep-instrument one run.
	// Shrink candidates are not counted.
	Telemetry telemetry.Sink
}

// DefaultTargets is the standard sweep: the Ω and ◇P detectors and
// consensus over Ω.
func DefaultTargets() []Target {
	return []Target{
		DetectorTarget{Family: "FD-Ω"},
		DetectorTarget{Family: "FD-◇P"},
		ConsensusTarget{Family: "FD-Ω"},
	}
}

func (c SweepConfig) withDefaults() SweepConfig {
	if len(c.Targets) == 0 {
		c.Targets = DefaultTargets()
	}
	if len(c.Scheds) == 0 {
		c.Scheds = Schedulers()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Report summarizes a sweep.
type Report struct {
	// Runs is the number of executions performed.
	Runs int
	// Failures holds one verdict per failing run (shrunk when requested),
	// sorted by (target, scheduler, seed) for stable output.
	Failures []Verdict
	// Errors holds infrastructure errors (an N or Seeds out of range,
	// unbuildable targets, unknown schedulers) — always empty for
	// well-formed configs.
	Errors []error
	// ShrinkTries counts candidate executions spent shrinking.
	ShrinkTries int
}

// Sweep executes the configured cartesian product in parallel and collects
// every specification violation.  Runs are independent — each worker builds
// a fresh system with freshly compiled gates — so the sweep is
// embarrassingly parallel and race-free; verdict collection is the only
// synchronized step.  An N outside 1..system.MaxLocs or a Seeds below 1
// runs nothing and is reported in Errors.
func Sweep(cfg SweepConfig) *Report {
	if cfg.N < 1 || cfg.N > system.MaxLocs {
		return &Report{Errors: []error{fmt.Errorf("chaos: sweep n=%d outside 1..%d", cfg.N, system.MaxLocs)}}
	}
	if cfg.Seeds < 1 {
		return &Report{Errors: []error{fmt.Errorf("chaos: sweep seeds=%d, want at least 1", cfg.Seeds)}}
	}
	cfg = cfg.withDefaults()

	var runs []Run
	for _, target := range cfg.Targets {
		maxT := target.MaxT(cfg.N)
		if cfg.MaxT >= 0 && cfg.MaxT < maxT {
			maxT = cfg.MaxT
		}
		plans := system.PlanSubsets(cfg.N, maxT)
		if cfg.MaxPlans > 0 && len(plans) > cfg.MaxPlans {
			plans = plans[:cfg.MaxPlans]
		}
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

	report := &Report{Runs: len(runs)}
	jobs := make(chan Run)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for r := range jobs {
				var t0 int64
				if cfg.Telemetry != nil {
					t0 = cfg.Telemetry.Now()
				}
				v, err := exec(r)
				if cfg.Telemetry != nil {
					cfg.Telemetry.Count(telemetry.CChaosRuns, 1)
					cfg.Telemetry.Span(telemetry.CatChaos, r.Target.ID(), t0, int32(worker), int64(v.Steps))
					if err == nil && v.Failed() {
						cfg.Telemetry.Count(telemetry.CChaosFailures, 1)
					}
				}
				if err != nil {
					mu.Lock()
					report.Errors = append(report.Errors, err)
					mu.Unlock()
					continue
				}
				if !v.Failed() {
					continue
				}
				tries := 0
				if cfg.Shrink {
					v, tries = ShrinkWith(v, exec)
				}
				mu.Lock()
				report.Failures = append(report.Failures, v)
				report.ShrinkTries += tries
				mu.Unlock()
			}
		}(w)
	}
	for _, r := range runs {
		jobs <- r
	}
	close(jobs)
	wg.Wait()

	sort.Slice(report.Failures, func(i, j int) bool {
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
