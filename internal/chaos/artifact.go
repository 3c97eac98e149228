package chaos

import (
	"errors"
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
//
// A live artifact (Sched == SchedLive) has no schedule to re-execute: its
// trace is certified by the cross-engine pass alone, and the verdict
// reported is the recorded one.
func Replay(a *trace.Artifact) (Verdict, error) { return ReplayInstrumented(a, nil) }

// ReplayInstrumented is Replay with an ExecuteInstrumented hook, so a
// recorded failure can be re-executed with telemetry attached
// (TelemetryHook) or under a fresh oracle — the artifact names the run, the
// hook chooses what to watch.  This is the trace.Artifact.TraceRef
// round-trip: a chaos binary records an artifact plus a Chrome trace, and a
// later session re-traces exactly that run from the artifact alone.  On a
// live artifact the hook instruments the cross-engine pass instead.
func ReplayInstrumented(a *trace.Artifact, instrument func(*Built) func() error) (Verdict, error) {
	r, err := RunFromArtifact(a)
	if err != nil {
		return Verdict{}, err
	}
	if a.Sched == SchedLive {
		if err := ReplayThroughSystemInstrumented(a, instrument); err != nil {
			return Verdict{}, err
		}
		v := Verdict{Run: r, Steps: a.Steps, Trace: a.Trace, NetLog: a.NetLog}
		if a.Verdict != "" {
			v.Err = errors.New(a.Verdict)
		}
		return v, nil
	}
	// A faithful re-execution traces exactly the recorded events, so its
	// log is sized once.
	v, err := ExecuteInstrumented(r, func(b *Built) func() error {
		b.Sys.ReserveTrace(len(a.Trace))
		if instrument == nil {
			return nil
		}
		return instrument(b)
	})
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
// through the fast-path ioa.System, certifying that the fresh system
// performs and traces every recorded event byte-identically (see Replayer).
// Sound for chaos targets because they emit no internal or hidden actions —
// the recorded trace is the complete event sequence of the run.  An
// artifact that records no events is an error: there is nothing to certify.
func ReplayThroughSystem(a *trace.Artifact) error { return ReplayThroughSystemInstrumented(a, nil) }

// ReplayThroughSystemInstrumented is ReplayThroughSystem with a hook in the
// style of ExecuteInstrumented: once the target is rebuilt — before the
// first replayed event — instrument may add post-Apply observers to the
// fresh system (an oracle, the causal DAG builder) and returns a check that
// runs once the trace has replayed byte-identically; a non-nil check error
// is returned.  It is a Replayer fed the whole trace at once.
func ReplayThroughSystemInstrumented(a *trace.Artifact, instrument func(*Built) func() error) error {
	p, err := NewReplayer(a, instrument)
	if err != nil {
		return err
	}
	if err := p.Feed(a.Trace); err != nil {
		return err
	}
	return p.Finish()
}

// Replayer is the cross-engine pass taken in steps: it replays recorded
// events, in chunks as they become available, through a system freshly
// built from an artifact's run description.  The live runtime feeds one
// its event log while the run is still appending to it.
//
// It certifies byte identity per event and keeps no log.  ioa.ReplayTrace
// applies each recorded event itself — the action some task of the fresh
// system reports enabled and that equals the record — so the fresh system
// traces exactly the recorded events except those it classes internal or
// hidden.  The replayer counts those through ioa.System.Visible, and its
// system runs under ioa.TraceOff: a comparison of the fresh system's log
// with the record would fail exactly when that count is non-zero.
//
// A Replayer is not safe for concurrent use.
type Replayer struct {
	b      *Built
	check  func() error
	fed    int   // events replayed
	hidden int   // replayed events the fresh system does not trace
	err    error // the first rejection; Feed replays nothing after it
}

// NewReplayer builds the system a's run description names (target, n,
// crash plan, network), as every replay does through Run.Build; a's trace
// is fed separately.  instrument, when non-nil, is called once the system
// is built, as in ReplayThroughSystemInstrumented, and its check runs in
// Finish.
func NewReplayer(a *trace.Artifact, instrument func(*Built) func() error) (*Replayer, error) {
	r, err := RunFromArtifact(a)
	if err != nil {
		return nil, err
	}
	// A fresh per-run Net re-derives the recorded link decisions from the
	// spec — the cross-engine pass replays lossy runs without the log.
	b, _, err := r.Build()
	if err != nil {
		return nil, err
	}
	b.Sys.SetTraceMode(ioa.TraceOff)
	p := &Replayer{b: b}
	if instrument != nil {
		p.check = instrument(b)
	}
	return p, nil
}

// Feed replays the next recorded events, in order after those already fed.
// After the first event the fresh system rejects, it replays nothing more
// and returns that rejection, naming the event's index in the whole record.
func (p *Replayer) Feed(events []ioa.Action) error {
	if p.err != nil {
		return p.err
	}
	if idx, err := ioa.ReplayTrace(p.b.Sys, events, p.fed, nil); err != nil {
		p.err = fmt.Errorf("chaos: recorded trace rejected by fresh system at event %d: %w", idx, err)
		return p.err
	}
	for _, act := range events {
		if !p.b.Sys.Visible(act) {
			p.hidden++
		}
	}
	p.fed += len(events)
	return nil
}

// Finish ends the replay of what was fed, which must be the whole record:
// it returns the rejection Feed met, else an error when nothing was fed or
// some replayed event would not be traced, else the instrument hook's
// check.  Call it once.
func (p *Replayer) Finish() error {
	switch {
	case p.err != nil:
		return p.err
	case p.fed == 0:
		return fmt.Errorf("chaos: artifact records no events to replay")
	case p.hidden > 0:
		return fmt.Errorf("chaos: cross-engine replay traced %d events, recorded %d — not byte-identical",
			p.fed-p.hidden, p.fed)
	case p.check != nil:
		return p.check()
	}
	return nil
}
