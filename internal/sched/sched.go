// Package sched produces executions of composed I/O automata systems.
//
// A fair execution in the sense of Section 2.4 of the paper gives every task
// infinitely many turns; the round-robin scheduler realizes this directly,
// and the seeded random scheduler realizes it with probability 1.  Both run
// for a bounded number of steps, producing finite prefixes of fair
// executions, which is what all specification checkers in this repository
// consume.
//
// All schedulers draw candidates from the System's incremental ready-set
// (System.NextReady) instead of rescanning the full task list.  The ready-set
// iterates in ascending flattened-task-index order — the same order the
// pre-fast-path full scans visited tasks — so schedules are byte-identical
// to the scan-based implementations (see the repository root's golden-trace
// suite and this package's TestFastPathMatchesReferenceScan).
//
// The crash automaton is special: per Section 4.4 *every* sequence over Iˆ is
// one of its fair traces, so a scheduler may delay enabled crash actions
// arbitrarily without violating fairness.  Options.Gate exploits this to
// control fault timing.
package sched

import (
	"repro/internal/ioa"
	"repro/internal/telemetry"
)

// StopReason says why a run ended.
type StopReason string

// Stop reasons.
const (
	// StopLimit: the step bound was reached.
	StopLimit StopReason = "step-limit"
	// StopQuiescent: no task of the composition is enabled; the system
	// cannot move regardless of gating.
	StopQuiescent StopReason = "quiescent"
	// StopGated: tasks remain enabled, but the run's Gate vetoed every one
	// of them for a full scan at a frozen step count, so no further scan can
	// fire anything (gates are functions of (step, task, action) plus state
	// they only advance when admitting).  Distinguished from StopQuiescent
	// since PR 2: previously RoundRobin reported quiescent after two idle
	// cycles and Random/RandomPriority after one empty candidate scan, both
	// conflating "nothing enabled" with "everything enabled is gated".
	StopGated StopReason = "gated"
	// StopCondition: the Options.Stop predicate (or a Drive strategy)
	// ended the run.
	StopCondition StopReason = "condition"
)

// Gate may veto scheduling an enabled action this turn.  Gating is only
// sound for actions whose automaton tolerates arbitrary delay without
// breaking fairness (crash actions, per §4.4), for bounded delays of other
// actions (a gate that eventually stops vetoing an action only reshuffles
// the fair execution's prefix), or when the run intentionally explores
// unfair schedules (the FLP adversary).
type Gate func(step int, tr ioa.TaskRef, act ioa.Action) bool

// Gates combines gates conjunctively: an action is schedulable only if every
// gate admits it.  Nil gates are skipped.
func Gates(gs ...Gate) Gate {
	return func(step int, tr ioa.TaskRef, act ioa.Action) bool {
		for _, g := range gs {
			if g != nil && !g(step, tr, act) {
				return false
			}
		}
		return true
	}
}

// Options configures a run.
type Options struct {
	// MaxSteps bounds the number of events performed (default 10_000).
	MaxSteps int
	// Stop, when non-nil, is evaluated after every event; returning true
	// ends the run.
	Stop func(sys *ioa.System, last ioa.Action) bool
	// Gate, when non-nil, may veto scheduling an enabled action this turn.
	// Drive ignores it: a Strategy sees the full enabled set and is its own
	// adversary.
	Gate Gate
	// Telemetry, when non-nil, receives scheduler-level metrics and trace
	// events: steps fired (CSchedSteps + per-task fires), gate vetoes
	// (CGateVetoes — enabled actions held back, the §2.4 environment freedom
	// the gate exercises).  Purely observational: it never changes which
	// action fires, so schedules with and without a registry are identical.
	Telemetry *telemetry.Registry
}

func (o Options) maxSteps() int {
	if o.MaxSteps <= 0 {
		return 10_000
	}
	return o.MaxSteps
}

// Result describes a finished run.
type Result struct {
	Steps  int
	Reason StopReason
}

// Stalled reports whether the run ended because nothing could fire —
// genuinely quiescent or fully gated.  Callers that previously compared
// against StopQuiescent to mean "the run ran out of work" should use this.
func (r Result) Stalled() bool {
	return r.Reason == StopQuiescent || r.Reason == StopGated
}

// CrashesAfter returns a Gate that blocks every crash action until the
// system has performed at least step events, releasing the k-th planned
// crash once step + k*gap events have been performed.  With gap = 0 every
// planned crash is released as soon as the step threshold is reached, so the
// whole fault pattern can fire back-to-back.
//
// The gate is a pure function of the step count and the crash task's index:
// the crash automaton sequences its tasks (task k enables only once tasks
// 0..k-1 have fired), so tr.Task is exactly the number of crashes already
// performed.  It used to count *releases* in a closure variable instead,
// which had two bugs, both fixed in PR 2: (1) a scheduler that consults the
// gate while collecting candidates (Random, RandomPriority) ratcheted the
// counter on crashes it then did not draw, postponing the next release by
// gap for every unfired admission — crashes drifted arbitrarily far past
// their thresholds and liveness checks over bounded prefixes flaked; (2)
// sharing one gate value between two runs silently carried the first run's
// release count into the second.  The pure gate is safe to share and
// consult any number of times (see TestCrashesAfterConsultIdempotent and
// TestCrashesAfterSharedGateSafe).
func CrashesAfter(step, gap int) Gate {
	return func(now int, tr ioa.TaskRef, act ioa.Action) bool {
		if act.Kind != ioa.KindCrash {
			return true
		}
		return now >= step+tr.Task*gap
	}
}

// Partition returns a Gate splitting the locations into the two sides of
// mask (bit l set = location l is on side 1): from step `from` on, every
// delivery whose sender and receiver sit on different sides is vetoed, and
// from step `until` on the partition heals and deliveries resume.  An
// `until` ≤ `from` never heals.  Sends are unaffected — messages queue in
// the channel and cross once the partition heals, which is exactly the
// §4.3 reliable-channel reading of a network partition: delivery is
// delayed, not lost (lossy links are the network layer's job, not the
// gate's).  Like CrashesAfter the gate is a pure function of (step,
// action), so it is safe to share and consult any number of times.
//
// A healing partition delays every cross-link delivery by a bounded amount,
// so gated runs remain prefixes of fair executions; a permanent partition
// is unfair to cross-link deliveries and must be paired with safety-only
// checking (chaos.GateSpec.EventuallyFair encodes the distinction).
func Partition(mask uint64, from, until int) Gate {
	return func(now int, _ ioa.TaskRef, act ioa.Action) bool {
		if act.Kind != ioa.KindReceive {
			return true
		}
		if now < from || (until > from && now >= until) {
			return true
		}
		// act.Loc is the receiver, act.Peer the sender.
		return mask>>uint(act.Loc)&1 == mask>>uint(act.Peer)&1
	}
}

// telemetryStep records one fired scheduler step in tel (which must be
// non-nil): the step counter, the per-task fire vector keyed by flattened
// task index, and a sched-category trace instant named after the action.
func telemetryStep(tel *telemetry.Registry, idx int, act ioa.Action) {
	tel.Count(telemetry.CSchedSteps, 1)
	tel.IncTask(idx)
	tel.Instant(telemetry.CatSched, act.Name, int32(idx), int64(act.Loc))
}

// stalled classifies an idle scan: StopGated when the gate was the only
// thing holding enabled work back, StopQuiescent otherwise.
func stalled(sys *ioa.System, gated bool) Result {
	if gated {
		return Result{Steps: sys.Steps(), Reason: StopGated}
	}
	return Result{Steps: sys.Steps(), Reason: StopQuiescent}
}

// RoundRobin runs sys under a fair round-robin task schedule until the step
// limit, quiescence (or a fully gated ready-set), or the stop condition.
func RoundRobin(sys *ioa.System, opts Options) Result {
	limit := opts.maxSteps()
	for sys.Steps() < limit {
		fired, gated := false, false
		for idx, ok := sys.NextReady(-1); ok; idx, ok = sys.NextReady(idx) {
			if sys.Steps() >= limit {
				break
			}
			tr, act := sys.TaskAt(idx), sys.ReadyAction(idx)
			if opts.Gate != nil && !opts.Gate(sys.Steps(), tr, act) {
				gated = true
				opts.Telemetry.Count(telemetry.CGateVetoes, 1)
				continue
			}
			sys.ApplyReady(idx)
			fired = true
			if opts.Telemetry != nil {
				telemetryStep(opts.Telemetry, idx, act)
			}
			if opts.Stop != nil && opts.Stop(sys, act) {
				return Result{Steps: sys.Steps(), Reason: StopCondition}
			}
		}
		if !fired {
			// The scan admitted nothing at a frozen step count; repeating
			// it cannot differ (gates only advance state when admitting),
			// so one idle scan is conclusive.
			return stalled(sys, gated)
		}
	}
	return Result{Steps: sys.Steps(), Reason: StopLimit}
}

// choice pairs a ready task with its enabled action and flattened index.
type choice struct {
	tr  ioa.TaskRef
	act ioa.Action
	idx int
}

// Random runs sys picking uniformly among enabled (and un-gated) tasks.
// Random schedules are fair with probability 1 over infinite runs; over the
// bounded prefix they provide schedule diversity for property tests.
//
// The uniform choice is drawn from the cross-release-stable SplitMix64
// sched.PRNG (the same stream RandomPriority and the chaos replay artifacts
// use), NOT from math/rand: a (seed, gates, plan) triple must replay to the
// identical execution on every Go release.  PR 2 ported Random off
// math/rand, which re-pinned every seed-keyed expectation.
func Random(sys *ioa.System, seed int64, opts Options) Result {
	return randomCore(sys, NewPRNG(seed), nil, opts)
}

// Priority ranks a ready (task, action) pair; RandomPriority only fires
// actions of maximal priority this step.  Priorities may depend on system
// state (e.g. per-channel send stamps) but must be a deterministic function
// of it so runs replay.
type Priority func(tr ioa.TaskRef, act ioa.Action) int

// RandomPriority runs sys picking uniformly — via the deterministic PRNG —
// among the highest-priority enabled (and un-gated) tasks.  With a constant
// priority it behaves like Random over the PRNG; with a skewed priority it
// is an adversarial schedule explorer in the spirit of Drive+Strategy (it
// need not be fair, so pair it with safety-only checkers unless the
// priority is bounded-skew).
func RandomPriority(sys *ioa.System, rng *PRNG, prio Priority, opts Options) Result {
	if prio == nil {
		prio = func(ioa.TaskRef, ioa.Action) int { return 0 }
	}
	return randomCore(sys, rng, prio, opts)
}

// randomCore is the shared draw loop: collect the (maximal-priority, when
// prio is non-nil) un-gated ready candidates in task order, then fire one
// uniformly.  Candidate order matches the old full-scan order, so the PRNG
// consumption — hence the schedule — is unchanged by the fast path.
func randomCore(sys *ioa.System, rng *PRNG, prio Priority, opts Options) Result {
	limit := opts.maxSteps()
	ready := make([]choice, 0, 64)
	for sys.Steps() < limit {
		ready = ready[:0]
		gated := false
		best := 0
		for idx, ok := sys.NextReady(-1); ok; idx, ok = sys.NextReady(idx) {
			tr, act := sys.TaskAt(idx), sys.ReadyAction(idx)
			if opts.Gate != nil && !opts.Gate(sys.Steps(), tr, act) {
				gated = true
				opts.Telemetry.Count(telemetry.CGateVetoes, 1)
				continue
			}
			if prio == nil {
				ready = append(ready, choice{tr, act, idx})
				continue
			}
			p := prio(tr, act)
			switch {
			case len(ready) == 0 || p > best:
				best = p
				ready = append(ready[:0], choice{tr, act, idx})
			case p == best:
				ready = append(ready, choice{tr, act, idx})
			}
		}
		if len(ready) == 0 {
			return stalled(sys, gated)
		}
		c := ready[rng.Intn(len(ready))]
		sys.ApplyReady(c.idx)
		if opts.Telemetry != nil {
			telemetryStep(opts.Telemetry, c.idx, c.act)
		}
		if opts.Stop != nil && opts.Stop(sys, c.act) {
			return Result{Steps: sys.Steps(), Reason: StopCondition}
		}
	}
	return Result{Steps: sys.Steps(), Reason: StopLimit}
}

// Strategy chooses the next task among the currently enabled ones; it may
// implement an adversary.  Returning -1 halts the run.  The enabled/acts
// slices are reused by the driver between steps and must not be retained
// past the Choose call.
type Strategy interface {
	Choose(sys *ioa.System, enabled []ioa.TaskRef, acts []ioa.Action) int
}

// StrategyFunc adapts a function to Strategy.
type StrategyFunc func(sys *ioa.System, enabled []ioa.TaskRef, acts []ioa.Action) int

// Choose implements Strategy.
func (f StrategyFunc) Choose(sys *ioa.System, enabled []ioa.TaskRef, acts []ioa.Action) int {
	return f(sys, enabled, acts)
}

// Drive runs sys under the given strategy (which need not be fair) until the
// step limit, quiescence, or the strategy halts.  Options.Gate is ignored:
// the strategy sees the full enabled set.
func Drive(sys *ioa.System, s Strategy, opts Options) Result {
	limit := opts.maxSteps()
	enabled := make([]ioa.TaskRef, 0, 64)
	acts := make([]ioa.Action, 0, 64)
	idxs := make([]int, 0, 64)
	for sys.Steps() < limit {
		enabled, acts, idxs = enabled[:0], acts[:0], idxs[:0]
		for idx, ok := sys.NextReady(-1); ok; idx, ok = sys.NextReady(idx) {
			enabled = append(enabled, sys.TaskAt(idx))
			acts = append(acts, sys.ReadyAction(idx))
			idxs = append(idxs, idx)
		}
		if len(enabled) == 0 {
			return Result{Steps: sys.Steps(), Reason: StopQuiescent}
		}
		k := s.Choose(sys, enabled, acts)
		if k < 0 {
			return Result{Steps: sys.Steps(), Reason: StopCondition}
		}
		sys.ApplyReady(idxs[k])
		if opts.Telemetry != nil {
			telemetryStep(opts.Telemetry, idxs[k], acts[k])
		}
		if opts.Stop != nil && opts.Stop(sys, acts[k]) {
			return Result{Steps: sys.Steps(), Reason: StopCondition}
		}
	}
	return Result{Steps: sys.Steps(), Reason: StopLimit}
}
