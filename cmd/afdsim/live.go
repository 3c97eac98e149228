package main

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/live"
	"repro/internal/system"
	"repro/internal/trace"
)

// runLive drives a chaos target on the live runtime: real goroutines per
// automaton, wall-clock heartbeats, a pluggable transport — then validates
// the execution with the target's own checker and the cross-engine replay.
func runLive(targetID string, n int, plan []ioa.Loc, transport string, interval, duration time.Duration,
	steps int, seed int64, artifactOut string, verbose bool) error {
	target, err := chaos.ParseTarget(targetID)
	if err != nil {
		return err
	}
	opts := live.Options{
		Seed:     seed,
		Interval: interval,
		Duration: duration,
		MaxSteps: steps,
	}
	switch transport {
	case "", "chan":
		// default in-process transport
	case "tcp":
		tcp, err := live.NewTCPTransport()
		if err != nil {
			return err
		}
		opts.Transport = tcp
		fmt.Printf("live: tcp transport on %s\n", tcp.Addr())
	default:
		return fmt.Errorf("unknown transport %q (chan | tcp)", transport)
	}
	if tel != nil {
		opts.Telemetry = tel
	}
	rep, err := live.RunTarget(live.RunSpec{
		Target: target,
		N:      n,
		Plan:   system.CrashOf(plan...),
		Opts:   opts,
	})
	if err != nil {
		return err
	}
	res := rep.Result
	evPerSec := float64(0)
	if res.Elapsed > 0 {
		evPerSec = float64(res.Steps) / res.Elapsed.Seconds()
	}
	fmt.Printf("live %s n=%d crash=%v: %d steps in %v (%s, %.0f events/sec), %d trace events\n",
		targetID, n, plan, res.Steps, res.Elapsed.Round(time.Millisecond), res.Reason, evPerSec,
		len(res.Trace))
	if rep.VerdictErr != nil {
		fmt.Printf("checker: REJECTED: %v\n", rep.VerdictErr)
	} else {
		fmt.Printf("checker: live trace ∈ T(%s)%s\n", targetID, fairNote(rep.Fair))
	}
	if rep.ReplayErr != nil {
		fmt.Printf("replay: DIVERGED: %v\n", rep.ReplayErr)
	} else {
		fmt.Println("replay: live trace re-driven byte-identical through the simulated engine")
	}
	if artifactOut != "" {
		if err := trace.WriteArtifactFile(artifactOut, rep.Artifact); err != nil {
			return err
		}
		fmt.Printf("artifact written to %s\n", artifactOut)
	}
	if verbose {
		for i, a := range res.Trace {
			fmt.Printf("%4d %8.3fms %v\n", i, float64(res.Stamps[i])/1e6, a)
		}
	}
	if rep.VerdictErr != nil || rep.ReplayErr != nil {
		return fmt.Errorf("live run failed validation")
	}
	return nil
}

func fairNote(fair bool) string {
	if fair {
		return ""
	}
	return " (safety clauses only: partition never healed)"
}
