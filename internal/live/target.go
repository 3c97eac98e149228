package live

import (
	"sync"

	"repro/internal/chaos"
	"repro/internal/system"
	"repro/internal/trace"
)

// SchedLive is the scheduler name recorded in artifacts produced by live
// runs (chaos.SchedLive).  No scheduler re-executes a live artifact —
// wall-clock timing is not a replayable input — so chaos.Replay validates
// it by the cross-engine pass, chaos.ReplayThroughSystem, which needs only
// the target and the recorded trace.
const SchedLive = chaos.SchedLive

// RunSpec is one fully specified live execution of a chaos target.
type RunSpec struct {
	// Target is the system-under-test (chaos.ParseTarget IDs).
	Target chaos.Target
	// N is the location count.
	N int
	// Plan is the fault plan the crash service realizes.
	Plan system.FaultPlan
	// Net is the adversarial network the channels apply (zero: reliable
	// full mesh).  Loss and topology live in the channel automata — the
	// same pure NetSpec decisions as simulated runs, so lossy live runs
	// stay replayable; the transport only adds delay and partitions.
	Net system.NetSpec
	// Opts configures the runtime.  Opts.Stop defaults to the target's
	// stop predicate; Opts.MaxSteps defaults to chaos.DefaultSteps(N) so
	// live traces are commensurate with simulated ones.
	Opts Options
}

// Report is the outcome of one live run: the runtime result, the replayable
// artifact, and the two validation verdicts.
type Report struct {
	Result Result
	// Artifact records the run with Sched == SchedLive; its Trace is the
	// live event log and its Verdict the checker's.
	Artifact *trace.Artifact
	// Fair echoes Result.Fair: whether liveness clauses were enforced.
	Fair bool
	// VerdictErr is the target checker's judgment of the live trace
	// (nil: specification satisfied).
	VerdictErr error
	// ReplayErr is the cross-engine validation: the live trace re-driven
	// event-by-event through a freshly built simulated system, byte-checked
	// (nil: the live execution is an execution of the composition).
	ReplayErr error
}

// Ok reports whether the run satisfied its specification and replayed
// cleanly through the simulated engine.
func (rep *Report) Ok() bool { return rep.VerdictErr == nil && rep.ReplayErr == nil }

// RunTarget builds the target through chaos.Run.Build, exactly as the chaos
// runner would (same network, no send stamps), drives it live, judges the
// trace with the target's own checker, and validates the artifact through
// the simulated engine.  The validation follows the run: a chaos.Replayer
// built from the artifact's run description before the first step is fed
// the runtime's log as it grows, on a goroutine of its own, and once the
// run ends the checker judges the trace while the replayer finishes the
// tail.  Report.ReplayErr is what chaos.ReplayThroughSystem returns on the
// finished artifact.  With Opts.Telemetry set it wires the system, channel
// and detector-QoS planes through chaos.TelemetryHook, whose observers run
// under the step lock, and fills the QoS histograms when the run ends.
// The returned error is infrastructural (unbuildable target, transport
// failure — check errors.Is ErrInfra); specification and replay verdicts
// land in the Report.
func RunTarget(spec RunSpec) (*Report, error) {
	b, nt, err := chaos.Run{Target: spec.Target, N: spec.N, Plan: spec.Plan, Net: spec.Net}.Build()
	if err != nil {
		return nil, err
	}
	opts := spec.Opts
	if opts.Stop == nil {
		opts.Stop = b.Stop
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = chaos.DefaultSteps(spec.N)
	}
	var flushQoS func() error
	if opts.Telemetry != nil {
		flushQoS = chaos.TelemetryHook(opts.Telemetry)(b)
	}
	rt, err := New(b.Sys, opts)
	if err != nil {
		return nil, err
	}
	a := &trace.Artifact{
		Target: spec.Target.ID(),
		N:      spec.N,
		Sched:  SchedLive,
		Seed:   opts.Seed,
		Crash:  spec.Plan.Crash,
		Net:    spec.Net.Wire(),
	}
	// A replayer that cannot be built is the replay verdict; the run still
	// happens.
	replay, replayErr := chaos.NewReplayer(a, nil)
	var following sync.WaitGroup
	if replay != nil {
		following.Add(1)
		go func() {
			defer following.Done()
			rt.follow(replay.Feed)
		}()
	}
	res, err := rt.Run()
	if err != nil {
		rt.Stop() // the run never started: release the follower
		following.Wait()
		return nil, err
	}
	if flushQoS != nil {
		_ = flushQoS() // TelemetryHook's check never fails
	}
	verdict := spec.Target.Checker(spec.N, spec.Plan, res.Fair)(res.Trace)
	a.Steps = res.Steps
	// Persisting the per-event stamps and the wall-clock epoch makes the
	// artifact self-sufficient for offline wall-clock QoS (detection time,
	// mistake duration) — replay itself never consumes timing.
	a.Stamps, a.Epoch = res.Stamps, res.Epoch
	a.NetLog = nt.Events()
	a.Trace = res.Trace
	if verdict != nil {
		a.Verdict = verdict.Error()
	}
	following.Wait()
	if replay != nil {
		replayErr = replay.Finish()
	}
	return &Report{
		Result:     res,
		Artifact:   a,
		Fair:       res.Fair,
		VerdictErr: verdict,
		ReplayErr:  replayErr,
	}, nil
}
