package chaos

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/trace"
)

// Artifact converts a verdict into its replayable wire form.  The artifact
// records the run inputs (target, n, steps, scheduler, seed, plan, gate
// parameters), the observed veto log and trace, and the verdict string;
// only the inputs drive a replay.
func (v Verdict) Artifact() *trace.Artifact {
	s := v.Run.Sched
	if s == "" {
		s = SchedRoundRobin
	}
	verdict := ""
	if v.Err != nil {
		verdict = v.Err.Error()
	}
	return &trace.Artifact{
		Target:  v.Run.Target.ID(),
		N:       v.Run.N,
		Steps:   v.Run.steps(),
		Sched:   s,
		Seed:    v.Run.Seed,
		Crash:   v.Run.Plan.Crash,
		Gate:    v.Run.Gates.Params(),
		GateLog: v.GateLog,
		Net:     v.Run.Net.Wire(),
		NetLog:  v.NetLog,
		Verdict: verdict,
		Trace:   v.Trace,
	}
}

// RunFromArtifact reconstructs the run an artifact records.
func RunFromArtifact(a *trace.Artifact) (Run, error) {
	target, err := ParseTarget(a.Target)
	if err != nil {
		return Run{}, err
	}
	net, err := system.NetSpecOf(a.N, a.Net)
	if err != nil {
		return Run{}, err
	}
	return Run{
		Target: target,
		N:      a.N,
		Plan:   system.CrashOf(a.Crash...),
		Gates:  GatesFromParams(a.Gate),
		Net:    net,
		Sched:  a.Sched,
		Seed:   a.Seed,
		Steps:  a.Steps,
	}, nil
}

// Replay re-executes the run an artifact records and reports whether the
// fresh verdict matches the recorded one.  A nil error with Verdict.Failed()
// false means the artifact no longer reproduces (e.g. the bug was fixed);
// a non-nil error means the replay itself diverged from the record, which
// indicates broken determinism.
//
// Replay validates the recorded trace through two independent engines: the
// scheduler re-execution above (same scheduler, seed, gates), and a
// cross-engine pass that feeds the recorded events one at a time through a
// freshly built system via ioa.ReplayTrace — each event must be the action
// some task's automaton reports enabled when asked directly (ReplayTrace
// polls every task's Enabled and never reads the incremental ready-set
// cache), and the events the fresh system traces must be byte-identical to
// the record.  The second pass certifies the artifact against the automata
// themselves rather than against the scheduler that happened to produce it
// or the ready-set it drove, so a stale-ready-set bug cannot hide behind
// deterministic re-execution of itself.  It used to stop at the verdict
// comparison, which accepted artifacts whose traces no current system can
// actually perform.
func Replay(a *trace.Artifact) (Verdict, error) { return ReplayInstrumented(a, nil) }

// ReplayInstrumented is Replay with an ExecuteInstrumented hook, so a
// recorded failure can be re-executed with telemetry attached
// (TelemetryHook) or under a fresh oracle — the artifact names the run, the
// hook chooses what to watch.  This is the trace.Artifact.TraceRef
// round-trip: a chaos binary records an artifact plus a Chrome trace, and a
// later session re-traces exactly that run from the artifact alone.
func ReplayInstrumented(a *trace.Artifact, instrument func(*Built) func() error) (Verdict, error) {
	r, err := RunFromArtifact(a)
	if err != nil {
		return Verdict{}, err
	}
	v, err := ExecuteInstrumented(r, instrument)
	if err != nil {
		return Verdict{}, err
	}
	recordedFail := a.Verdict != ""
	if v.Failed() != recordedFail {
		return v, fmt.Errorf("chaos: replay verdict %v does not match recorded %q", v.Err, a.Verdict)
	}
	if len(a.Trace) > 0 && !trace.Equal(v.Trace, a.Trace) {
		return v, fmt.Errorf("chaos: replay trace diverges from recorded trace (%d vs %d events)",
			len(v.Trace), len(a.Trace))
	}
	if err := ReplayThroughSystem(a); err != nil {
		return v, err
	}
	return v, nil
}

// ReplayThroughSystem performs the cross-engine half of Replay: it rebuilds
// the artifact's target and replays the recorded trace event-by-event
// through the fast-path ioa.System, then asserts the fresh system's trace is
// byte-identical to the record.  Sound for chaos targets because they emit
// no internal or hidden actions — the recorded trace is the complete event
// sequence of the run.
func ReplayThroughSystem(a *trace.Artifact) error {
	if len(a.Trace) == 0 {
		return nil
	}
	r, err := RunFromArtifact(a)
	if err != nil {
		return err
	}
	// A fresh per-run Net re-derives the recorded link decisions from the
	// spec — the cross-engine pass replays lossy runs without the log.
	b, _, err := r.Build()
	if err != nil {
		return err
	}
	if idx, err := ioa.ReplayTrace(b.Sys, a.Trace, nil); err != nil {
		return fmt.Errorf("chaos: recorded trace rejected by fresh system at event %d: %w", idx, err)
	}
	if got := b.Sys.Trace(); !trace.Equal(got, a.Trace) {
		return fmt.Errorf("chaos: cross-engine replay traced %d events, recorded %d — not byte-identical",
			len(got), len(a.Trace))
	}
	return nil
}
