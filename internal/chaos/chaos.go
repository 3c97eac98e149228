// Package chaos is the fault-injection and adversarial-execution harness:
// it turns the scheduler's timing freedom (§2.4 fairness) and the crash
// automaton's total freedom over Iˆ (§4.4) into a systematic adversary.
//
// The pipeline is
//
//	generator → gates → runner → shrinker → artifact
//
// A fault-plan generator enumerates or samples crash patterns up to a
// target's tolerance (system.PlanSubsets, SamplePlan).  Adversarial gates
// (GateSpec) perturb timing — delayed crash release, per-message delivery
// delay, starving one channel for a bounded prefix — without ever
// suppressing a non-crash action forever, so every gated run is still a
// prefix of a fair execution; crash actions may be delayed arbitrarily per
// §4.4.  The runner sweeps (target, scheduler, seed, fault plan, gates)
// tuples in parallel and funnels every trace through the repository's
// uniform specification checkers (afd.Checker, consensus.Spec.Checker,
// problems adapters).  A failing run is shrunk to a minimal reproducer —
// fewer crashes, zeroed gates, the simplest scheduler, the shortest step
// bound that still fails — and emitted as a replayable trace.Artifact.
//
// Replay determinism: every source of nondeterminism in a run is a named
// field of Run — the scheduler kind, its integer seed (driving the
// SplitMix64 sched.PRNG stream for every random scheduler since PR 2 ported
// sched.Random off math/rand), the fault plan, and the gate parameters.
// Gates are pure functions of (step, task, action) and are freshly
// constructed per run, so Execute(run) is a pure function: same Run, same
// trace, same verdict.  The only deliberately unfair scheduler (SchedLIFO) is paired
// with safety-only checking, mirroring the paper's split between clauses
// refutable on arbitrary prefixes and liveness clauses that need fairness.
package chaos

import (
	"fmt"
	"strings"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Scheduler kinds a Run may name.
const (
	// SchedRoundRobin is the fair deterministic round-robin schedule.
	SchedRoundRobin = "rr"
	// SchedRandom is the seeded uniform-random schedule (fair w.p. 1).
	SchedRandom = "random"
	// SchedLIFO is the adversarial deliver-last-sent-first schedule: among
	// enabled actions it prioritizes the delivery of the most recently sent
	// message (via send stamps when the target provides them), breaking
	// ties with the deterministic PRNG.  It is not fair, so runs under it
	// are checked against safety clauses only.
	SchedLIFO = "lifo"
	// SchedLive names a run of the live runtime (package live).  Wall-clock
	// timing is not a replayable input, so no scheduler re-executes it:
	// Replay validates its artifact by the cross-engine pass alone.  It is
	// not a sweep scheduler.
	SchedLive = "live"
)

// Schedulers lists every scheduler kind in sweep order.
func Schedulers() []string { return []string{SchedRoundRobin, SchedRandom, SchedLIFO} }

// Fair reports whether the named scheduler produces prefixes of fair
// executions, i.e. whether liveness clauses may be enforced on its runs.
func Fair(schedKind string) bool { return schedKind != SchedLIFO }

// Built is a target system ready to run.
type Built struct {
	// Sys is the freshly composed system.
	Sys *ioa.System
	// Stop, when non-nil, ends the run early (e.g. consensus: everyone
	// live has decided).
	Stop func(sys *ioa.System, last ioa.Action) bool
	// Prio, when non-nil, ranks actions for SchedLIFO (newest-send-first).
	Prio sched.Priority
	// Tel is threaded into the scheduler as sched.Options.Telemetry; nil
	// means telemetry is off.  Instrumentation hooks (TelemetryHook) set it
	// to the registry they wire into the system and its channels.
	Tel *telemetry.Registry
}

// Target is a system-under-test the chaos runner knows how to build and
// judge.  Implementations must be stateless values: Build is called once
// per run, concurrently from runner goroutines.
type Target interface {
	// ID is the stable identifier recorded in artifacts, e.g.
	// "detector:FD-Ω" or "consensus:FD-◇P".
	ID() string
	// MaxT is the largest crash count the specification tolerates for n
	// locations (the plan generator never exceeds it).
	MaxT(n int) int
	// Build composes a fresh system realizing the fault plan over the
	// adversarial network nt (nil: the reliable full mesh; targets without
	// channels ignore it).  lifo asks for send-stamp tracking so SchedLIFO
	// can prioritize by recency.
	Build(n int, plan system.FaultPlan, nt *system.Net, lifo bool) (*Built, error)
	// Checker returns the uniform verdict function for a completed run;
	// fair selects whether liveness clauses are enforced.
	Checker(n int, plan system.FaultPlan, fair bool) func(trace.T) error
}

// Run is one fully determined chaos execution: every source of
// nondeterminism is a field, so Execute is a pure function of Run.
type Run struct {
	Target Target
	N      int
	Plan   system.FaultPlan
	Gates  GateSpec
	// Net is the adversarial network the run executes over; the zero value
	// is the reliable full mesh the paper assumes.  Link decisions are a
	// pure function of (Net.Seed, link, send index), so the spec alone —
	// not a decision log — makes lossy runs replayable.
	Net   system.NetSpec
	Sched string // SchedRoundRobin (default), SchedRandom, SchedLIFO
	Seed  int64
	Steps int // 0 = DefaultSteps(N)
}

// DefaultSteps is the default step bound for n locations: generous enough
// for every target to satisfy its liveness clauses under fair schedules.
func DefaultSteps(n int) int { return 1200 * n }

func (r Run) steps() int {
	if r.Steps <= 0 {
		return DefaultSteps(r.N)
	}
	return r.Steps
}

// Build composes the run's system: a fresh Net instance unless the spec is
// the reliable full mesh, then Target.Build, with send-stamp tracking under
// SchedLIFO.  Every path that runs or re-checks a run builds it here —
// execution, both replay engines, causal reconstruction and live runs.  A
// location count outside 1..system.MaxLocs is an error: every location
// bitmask assumes that bound.  So is a fault plan naming a location outside
// 0..N−1, which no automaton of the run could crash.  The returned Net (nil
// for the full mesh) logs the run's link decisions.
func (r Run) Build() (*Built, *system.Net, error) {
	if r.N < 1 || r.N > system.MaxLocs {
		return nil, nil, fmt.Errorf("chaos: building %s: n=%d outside 1..%d", r.Target.ID(), r.N, system.MaxLocs)
	}
	for _, l := range r.Plan.Crash {
		if l < 0 || int(l) >= r.N {
			return nil, nil, fmt.Errorf("chaos: building %s: crash location %d outside 0..%d", r.Target.ID(), l, r.N-1)
		}
	}
	var nt *system.Net
	if !r.Net.IsZero() {
		nt = system.NewNet(r.Net)
	}
	b, err := r.Target.Build(r.N, r.Plan, nt, r.Sched == SchedLIFO)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: building %s: %w", r.Target.ID(), err)
	}
	return b, nt, nil
}

// Verdict is the outcome of one executed run.
type Verdict struct {
	Run     Run
	Steps   int
	Reason  sched.StopReason
	Err     error // non-nil: the trace violates the target's specification
	Trace   trace.T
	GateLog []trace.GateVeto
	// NetLog is the bounded log of non-deliver link decisions the run's
	// adversarial network made (empty for reliable runs).
	NetLog []trace.LinkEvent
}

// Failed reports whether the run violated its specification.
func (v Verdict) Failed() bool { return v.Err != nil }

// Execute performs one chaos run.  The returned error is an infrastructure
// error (unknown scheduler, unbuildable target); specification violations
// land in Verdict.Err.
func Execute(r Run) (Verdict, error) { return ExecuteInstrumented(r, nil) }

// TelemetryHook returns an ExecuteInstrumented hook wiring tel through every
// plane of a built run — the scheduler (Built.Tel), the system and its
// channel mesh (system.Instrument), and detector QoS.  An
// afd.SuspicionTracker observes every fired event and streams
// CSuspicionAdded/CSuspicionRemoved; the returned check, run once
// the schedule completes, fills HDetectionLatency and HMistakeDuration from
// the tracker's Stats — the figures causal.Compute derives from the
// finished trace — and never fails.  Chaos targets emit no internal or
// hidden actions, so every fired event is the next trace event, as the
// tracker requires.  Compose it with an oracle hook by calling both from
// one instrument function.
func TelemetryHook(tel *telemetry.Registry) func(*Built) func() error {
	return func(b *Built) func() error {
		b.Tel = tel
		system.Instrument(b.Sys, tel)
		q := afd.NewSuspicionTracker()
		b.Sys.AddObserver(func(_ int, act ioa.Action) {
			if tr, ok := q.Fold(act); ok {
				tel.Count(telemetry.CSuspicionAdded, int64(len(tr.Added)))
				tel.Count(telemetry.CSuspicionRemoved, int64(len(tr.Removed)))
			}
		})
		return func() error {
			for _, s := range q.Stats(nil) {
				for _, d := range s.Detections {
					tel.Observe(telemetry.HDetectionLatency, int64(d.Steps))
				}
				for _, m := range s.Mistakes {
					tel.Observe(telemetry.HMistakeDuration, int64(m.Steps))
				}
			}
			return nil
		}
	}
}

// OracleHook returns an ExecuteInstrumented hook attaching a fresh
// differential oracle to every built run: full sweeps after every event
// (stride 1) plus a naive shadow queue per channel.  Its check runs the
// end-of-run sweep and yields the first divergence, an error IsDivergence
// recognizes.  tel (nil when off) meters the oracle's sweep counts and
// latencies; they are atomic, so one registry serves concurrent runs, and
// ShrinkWith may re-attach the hook to every shrink candidate.
func OracleHook(tel *telemetry.Registry) func(*Built) func() error {
	return func(b *Built) func() error {
		return oracle.Attach(b.Sys, oracle.Options{Stride: 1, Shadow: true, Telemetry: tel}).Check
	}
}

// IsDivergence reports whether a verdict error is an oracle divergence —
// the optimized engine disagreeing with its reference — rather than a
// specification violation: its clause is one of package oracle's
// "(oracle-…)" names.
func IsDivergence(err error) bool {
	return strings.HasPrefix(errClause(err), "(oracle-")
}

// ExecuteInstrumented performs one chaos run with an instrumentation hook:
// after the target is built — before any step — instrument may attach
// observers to the built system (e.g. oracle.Attach) and returns a check
// function evaluated once the schedule completes.  A non-nil check error
// takes precedence over the specification verdict in Verdict.Err: a
// divergence between engines undermines the trace the checker judged.
// instrument must be safe to call once per execution; ShrinkWith passes one
// to re-instrument every shrink candidate.  When the hook set Built.Tel, a
// partitioning run also reports its partition life cycle there.
func ExecuteInstrumented(r Run, instrument func(*Built) func() error) (Verdict, error) {
	b, nt, err := r.Build()
	if err != nil {
		return Verdict{}, err
	}
	var check func() error
	if instrument != nil {
		check = instrument(b)
	}
	if b.Tel != nil && r.Gates.partitions() {
		r.Gates.observePartition(b.Sys, b.Tel)
	}
	var log []trace.GateVeto
	opts := sched.Options{
		MaxSteps:  r.steps(),
		Stop:      b.Stop,
		Gate:      r.Gates.Compile(&log),
		Telemetry: b.Tel,
	}
	var res sched.Result
	switch r.Sched {
	case "", SchedRoundRobin:
		res = sched.RoundRobin(b.Sys, opts)
	case SchedRandom:
		res = sched.Random(b.Sys, r.Seed, opts)
	case SchedLIFO:
		prio := b.Prio
		if prio == nil {
			prio = func(ioa.TaskRef, ioa.Action) int { return 0 }
		}
		res = sched.RandomPriority(b.Sys, sched.NewPRNG(r.Seed), prio, opts)
	default:
		return Verdict{}, fmt.Errorf("chaos: unknown scheduler %q", r.Sched)
	}
	t := b.Sys.Trace()
	// A never-healing partition starves cross-side deliveries forever, so
	// even a fair scheduler's run is not a fair-execution prefix; downgrade
	// to safety-only checking, mirroring the SchedLIFO split.  So is a run
	// the gates froze with non-crash work enabled: a delay gate counts steps,
	// and a system with nothing else to do never reaches the release.
	fair := Fair(r.Sched) && r.Gates.EventuallyFair() &&
		!(res.Reason == sched.StopGated && pendingWork(b.Sys))
	verdictErr := r.Target.Checker(r.N, r.Plan, fair)(t)
	if check != nil {
		if ierr := check(); ierr != nil {
			verdictErr = ierr
		}
	}
	return Verdict{
		Run:     r,
		Steps:   res.Steps,
		Reason:  res.Reason,
		Err:     verdictErr,
		Trace:   t,
		GateLog: log,
		NetLog:  nt.Events(),
	}, nil
}

// pendingWork reports whether some task of sys has a non-crash action
// enabled.
func pendingWork(sys *ioa.System) bool {
	for _, tr := range sys.Tasks() {
		if act, ok := sys.Enabled(tr); ok && act.Kind != ioa.KindCrash {
			return true
		}
	}
	return false
}
