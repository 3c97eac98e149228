package causal

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/afd"
	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/live"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// qosTotals are the figures streamed telemetry and offline analysis must
// agree on.
type qosTotals struct {
	detections, detectionSteps int64
	mistakes, mistakeSteps     int64
	added, removed             int64
}

// offlineQoS derives the totals from a finished record: Compute's samples
// and the DAG's suspect-set transitions.
func offlineQoS(t *testing.T, a *trace.Artifact) qosTotals {
	t.Helper()
	var q qosTotals
	for _, s := range Compute(a.Trace, nil) {
		for _, d := range s.Detections {
			q.detections++
			q.detectionSteps += int64(d.Steps)
		}
		for _, m := range s.Mistakes {
			q.mistakes++
			q.mistakeSteps += int64(m.Steps)
		}
	}
	d, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range d.Transitions() {
		q.added += int64(len(tr.Added))
		q.removed += int64(len(tr.Removed))
	}
	return q
}

// streamedQoS reads the same totals from a registry chaos.TelemetryHook fed.
func streamedQoS(reg *telemetry.Registry) qosTotals {
	det, mis := reg.Hist(telemetry.HDetectionLatency), reg.Hist(telemetry.HMistakeDuration)
	return qosTotals{
		detections: det.Count(), detectionSteps: det.Sum(),
		mistakes: mis.Count(), mistakeSteps: mis.Sum(),
		added:   reg.Value(telemetry.CSuspicionAdded),
		removed: reg.Value(telemetry.CSuspicionRemoved),
	}
}

// TestTelemetryQoSMatchesCompute: detector QoS streamed from fired events
// equals the offline analysis of the finished trace — detection and mistake
// histograms hold exactly Compute's samples across all families, and the
// suspicion counters equal the transitions' totals — under round-robin,
// random, and a live run.  Sampling offered rather than fired actions, or a
// detection definition other than Compute's, breaks the equality.  The
// gossip emulations never suspect wrongly, so the perverse ◇P detector
// joins the grid to exercise the mistake histogram.
func TestTelemetryQoSMatchesCompute(t *testing.T) {
	var all qosTotals
	for _, id := range []string{
		"gossip:" + afd.FamilyEvQ + ">" + afd.FamilyEvP,
		"gossip:" + afd.FamilyQ + ">" + afd.FamilyP,
		"detector:" + afd.FamilyEvP,
	} {
		target, err := chaos.ParseTarget(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{4, 8} {
			for _, kind := range []string{chaos.SchedRoundRobin, chaos.SchedRandom} {
				for seed := int64(1); seed <= 10; seed++ {
					gates := chaos.NoGates()
					gates.CrashAfter = 50 * n
					r := chaos.Run{
						Target: target, N: n, Plan: system.CrashOf(ioa.Loc(n - 1)),
						Gates: gates, Sched: kind, Seed: seed,
					}
					reg := telemetry.NewRegistry()
					v, err := chaos.ExecuteInstrumented(r, chaos.TelemetryHook(reg))
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s n=%d %s seed=%d", id, n, kind, seed)
					want, got := offlineQoS(t, v.Artifact()), streamedQoS(reg)
					if got != want {
						t.Errorf("%s: telemetry %+v, offline %+v", name, got, want)
					}
					all.detections += want.detections
					all.mistakes += want.mistakes
				}
			}
		}
	}
	// Vacuity guard: the grid must exercise both histograms.
	if all.detections == 0 || all.mistakes == 0 {
		t.Fatalf("grid produced %d detections and %d mistakes; both must be positive",
			all.detections, all.mistakes)
	}

	t.Run("live", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		rep, err := live.RunTarget(live.RunSpec{
			Target: gossipTarget(t), N: 4, Plan: system.CrashOf(3),
			Opts: live.Options{
				Transport: live.NewChanTransport(live.ChanOptions{Seed: 2}),
				Seed:      2, Duration: 10 * time.Second, Telemetry: reg,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("live run invalid: verdict=%v replay=%v", rep.VerdictErr, rep.ReplayErr)
		}
		want, got := offlineQoS(t, rep.Artifact), streamedQoS(reg)
		if got != want {
			t.Errorf("live: telemetry %+v, offline %+v", got, want)
		}
		if want.detections == 0 {
			t.Error("live run detected no crash")
		}
	})
}
