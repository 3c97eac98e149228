package main

import (
	"fmt"
	"time"

	"repro/internal/afd"
	"repro/internal/causal"
	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/live"
	"repro/internal/system"
	"repro/internal/telemetry"
)

const (
	liveN       = 8
	liveCrashed = ioa.Loc(liveN - 1)
	// A paced run fires at the runtime's default heartbeat for
	// livePacedSteps steps: long enough for every observer to suspect the
	// crash for good.
	livePacedInterval = 100 * time.Microsecond
	livePacedSteps    = 2400
	// A saturated run fires every 1 µs, so it measures the step lock and
	// the transport rather than the pacing.  At that rate the last observer
	// may suspect the crash only tens of thousands of steps after it: the
	// default 1200·n step budget is too short a prefix for ◇P's eventual
	// strong completeness, and now and then so is 100k steps.  A saturated
	// run therefore lasts liveSaturatedSteps, and past that until every
	// live observer suspects the crash, up to liveSaturatedCap.
	liveSaturatedSteps = 100_000
	liveSaturatedCap   = 1_000_000
	liveCrashAfter     = 3 * time.Millisecond
	// liveTimeout stops a run that stalls; no healthy run comes near it.
	liveTimeout = 10 * time.Second
)

// liveTCP is the live path: the gossip ◇Q>◇P mesh at n=8 run on goroutines
// over the loopback TCP transport, with location 7 crashing.  Each op is
// one saturated run, judged by the target's checker and replayed through
// the simulated engine.  Traced ops also make a paced run (default
// heartbeat), judged the same way, for the detection latency: its length
// is set by the heartbeat clock rather than by the system's speed, so it
// is not part of the op.
type liveTCP struct {
	seed   int64
	target chaos.Target
}

func (w *liveTCP) setup(seed int64) error {
	w.seed = seed
	t, err := chaos.ParseTarget(gossipTarget)
	w.target = t
	return err
}

func (w *liveTCP) passLen() int { return 1 }

// runLive performs one live run over a fresh TCP transport and checks that
// it ended for the expected reason, satisfied its specification and
// replayed.
func (w *liveTCP) runLive(opts live.Options, reason string) (*live.Report, time.Duration, error) {
	tr, err := live.NewTCPTransport()
	if err != nil {
		return nil, 0, err
	}
	defer tr.Stop()
	opts.Transport = tr
	opts.Duration = liveTimeout
	start := time.Now()
	rep, err := live.RunTarget(live.RunSpec{Target: w.target, N: liveN, Plan: system.CrashOf(liveCrashed), Opts: opts})
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if rep.Result.Reason != reason {
		return nil, 0, fmt.Errorf("run ended by %s after %d steps", rep.Result.Reason, rep.Result.Steps)
	}
	if rep.VerdictErr != nil {
		return nil, 0, fmt.Errorf("checker rejected the run: %w", rep.VerdictErr)
	}
	if rep.ReplayErr != nil {
		return nil, 0, fmt.Errorf("replay diverged: %w", rep.ReplayErr)
	}
	return rep, wall, nil
}

func saturated(seed int64) live.Options {
	return live.Options{
		Seed: seed, Interval: time.Microsecond, CrashAfter: liveCrashAfter,
		MaxSteps: liveSaturatedCap, Stop: suspectedByAll(liveSaturatedSteps),
	}
}

// suspectedByAll returns a stop predicate that ends a run at the first
// event, from minSteps on, that completes the checker's witness of strong
// completeness: after the crash, and after the last ◇P output at any
// location that does not suspect the crashed one, every live location has
// output a set that does.  It runs under the step lock on every event, so
// it decodes a suspect set only when a location's output changes.
func suspectedByAll(minSteps int) func(*ioa.System, ioa.Action) bool {
	var payload [liveN]string
	var suspects [liveN]bool
	var lastGood [liveN]int // index among ◇P outputs of l's last suspecting one
	outputs, lastBad, crashed := 0, 0, false
	return func(sys *ioa.System, a ioa.Action) bool {
		switch {
		case a.Kind == ioa.KindCrash:
			crashed = true
		case a.Kind == ioa.KindFD && a.Name == afd.FamilyEvP:
			if a.Payload != payload[a.Loc] {
				payload[a.Loc] = a.Payload
				set, err := ioa.DecodeLocSet(a.Payload)
				suspects[a.Loc] = err == nil && set[liveCrashed]
			}
			outputs++
			if suspects[a.Loc] {
				lastGood[a.Loc] = outputs
			} else {
				lastBad = outputs
			}
		}
		if !crashed || sys.Steps() < minSteps {
			return false
		}
		for l := ioa.Loc(0); l < liveCrashed; l++ {
			if lastGood[l] <= lastBad {
				return false
			}
		}
		return true
	}
}

func (w *liveTCP) op(i int, c *opCtx) error {
	seed := w.seed + int64(i)
	var sat *live.Report
	var satWall time.Duration
	var err error
	c.span("live.saturated", func() { sat, satWall, err = w.runLive(saturated(seed), live.ReasonStop) })
	c.done()
	if err != nil {
		return fmt.Errorf("saturated: %w", err)
	}
	res := sat.Result
	c.share("live.runtime_share", res.Elapsed)
	c.share("live.verdict_share", satWall-res.Elapsed)
	c.sample("live.events_per_s", float64(res.Steps)/res.Elapsed.Seconds())
	c.sample("live.saturated_steps", float64(res.Steps))

	c.probe("live.paced", func(pc *opCtx) error {
		paced, _, err := w.runLive(live.Options{
			Seed: seed, Interval: livePacedInterval, MaxSteps: livePacedSteps,
		}, live.ReasonMaxSteps)
		if err != nil {
			return fmt.Errorf("paced: %w", err)
		}
		for _, s := range causal.Compute(paced.Result.Trace, paced.Result.Stamps) {
			if s.Family != afd.FamilyEvP {
				continue
			}
			for _, d := range s.Detections {
				pc.sample("live.detect_beats", float64(d.Ns)/float64(livePacedInterval))
			}
			pc.sample("live.mistakes_per_run", float64(s.MistakeCount))
		}
		return nil
	})
	// The verdict is the checker plus the cross-engine replay; the probes
	// time each alone.
	c.probe("checker.check", func(pc *opCtx) error {
		start := time.Now()
		err := w.target.Checker(liveN, system.CrashOf(liveCrashed), res.Fair)(res.Trace)
		pc.share("checker.check_share", time.Since(start))
		return err
	})
	c.probe("chaos.replay_system", func(pc *opCtx) error {
		start := time.Now()
		err := chaos.ReplayThroughSystem(sat.Artifact)
		pc.share("chaos.replay_system_share", time.Since(start))
		return err
	})
	// Counting signals and nudges wires telemetry through the runtime,
	// which slows it, so the counts come from a run of their own.
	c.probe("live.counters", func(pc *opCtx) error {
		reg := telemetry.NewRegistry()
		opts := saturated(seed)
		opts.Telemetry = reg
		rep, _, err := w.runLive(opts, live.ReasonStop)
		if err != nil {
			return err
		}
		events := float64(rep.Result.Steps)
		pc.sample("live.signals_per_event", float64(reg.Value(telemetry.CLiveSignals))/events)
		pc.sample("live.nudges_per_event", float64(reg.Value(telemetry.CLiveNudges))/events)
		return nil
	})
	return nil
}
