// End-to-end telemetry tests: a fully wired simulation (system + channels +
// scheduler + oracle) metered through a live Registry, plus the
// disabled-path benchmarks CI uses to watch the nil-guard overhead budget.
//
// This file is an external test package so it can import the instrumented
// layers without a cycle (they all import telemetry).
package telemetry_test

import (
	"testing"

	"repro/internal/afd"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/telemetry"
)

// buildDetector composes the E1 system: P detector, full channel mesh, crash
// automaton.
func buildDetector(tb testing.TB, n int, plan system.FaultPlan) *ioa.System {
	tb.Helper()
	d, err := afd.Lookup(afd.FamilyP, n)
	if err != nil {
		tb.Fatal(err)
	}
	autos := []ioa.Automaton{d.Automaton(n)}
	autos = append(autos, system.Channels(n)...)
	autos = append(autos, system.NewCrash(plan))
	return ioa.MustNewSystem(autos...)
}

// wire threads a registry through every plane of a built system and returns
// scheduler options carrying the same registry (nil leaves telemetry off).
func wire(sys *ioa.System, reg *telemetry.Registry, opts sched.Options) sched.Options {
	system.Instrument(sys, reg)
	opts.Telemetry = reg
	return opts
}

// buildConsensus composes the Section-9.3 system S under Ω — the smallest
// composition in the repo with real channel traffic (the detector-only E1
// composition has a mesh, but its detector emits outputs without sending).
func buildConsensus(tb testing.TB, n int, plan system.FaultPlan) *ioa.System {
	tb.Helper()
	d, err := afd.Lookup(afd.FamilyOmega, n)
	if err != nil {
		tb.Fatal(err)
	}
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i % 2
	}
	sys, err := consensus.Build(consensus.BuildSpec{
		N: n, Family: afd.FamilyOmega, Det: d.Automaton(n),
		Crash: plan.Crash, Values: vals,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestWiredRunMetrics cross-checks the metric planes against ground truth
// the simulation itself reports: events applied == System.Steps, scheduler
// steps match, crash counts match the fault plan, channel enqueues were
// sampled, gate vetoes were counted, and the trace ring holds events.
func TestWiredRunMetrics(t *testing.T) {
	const n, steps = 3, 2000
	reg := telemetry.NewRegistry()
	sys := buildConsensus(t, n, system.CrashOf(1))
	opts := wire(sys, reg, sched.Options{MaxSteps: steps, Gate: sched.CrashesAfter(40, 20)})
	o := oracle.Attach(sys, oracle.Options{Telemetry: reg})
	sched.RoundRobin(sys, opts)
	if err := o.Check(); err != nil {
		t.Fatalf("oracle: %v", err)
	}

	if got, want := reg.Value(telemetry.CEventsApplied), int64(sys.Steps()); got != want {
		t.Errorf("events_applied = %d, want System.Steps() = %d", got, want)
	}
	if got := reg.Value(telemetry.CSchedSteps); got != int64(sys.Steps()) {
		t.Errorf("sched_steps = %d, want %d", got, sys.Steps())
	}
	if got := reg.Value(telemetry.CCrashes); got != 1 {
		t.Errorf("crashes = %d, want 1 (plan crashes location 1)", got)
	}
	if reg.Value(telemetry.CGateVetoes) == 0 {
		t.Error("gate_vetoes = 0, but CrashesAfter(40, 20) must veto early crash candidates")
	}
	if reg.Value(telemetry.CDeliveries) == 0 {
		t.Error("deliveries = 0 in a full channel mesh")
	}
	if reg.Value(telemetry.COracleSweeps) == 0 {
		t.Error("oracle_sweeps = 0 with an attached oracle")
	}
	if reg.Hist(telemetry.HChannelDepth).Count() == 0 {
		t.Error("channel_depth histogram empty despite channel traffic")
	}
	if reg.Hist(telemetry.HOracleSweepNs).Count() != reg.Value(telemetry.COracleSweeps) {
		t.Errorf("sweep latency samples (%d) != sweep count (%d)",
			reg.Hist(telemetry.HOracleSweepNs).Count(), reg.Value(telemetry.COracleSweeps))
	}
	rec, _ := reg.Trace().Stats()
	if rec == 0 {
		t.Error("trace recorder saw no events")
	}

	snap := reg.Snapshot()
	var taskTotal int64
	for _, v := range snap.TaskFires {
		taskTotal += v
	}
	if taskTotal != int64(sys.Steps()) {
		t.Errorf("per-task fires sum to %d, want %d", taskTotal, sys.Steps())
	}
}

// TestWiredRunIdenticalTrace is the local half of the golden-trace telemetry
// guarantee: the same seed and gates produce byte-identical traces with
// telemetry off and on (the root suite pins the absolute hashes).
func TestWiredRunIdenticalTrace(t *testing.T) {
	run := func(reg *telemetry.Registry) []ioa.Action {
		sys := buildDetector(t, 4, system.CrashOf(2))
		opts := sched.Options{MaxSteps: 500, Gate: sched.CrashesAfter(30, 15)}
		if reg != nil {
			opts = wire(sys, reg, opts)
		}
		sched.Random(sys, 42, opts)
		return sys.Trace()
	}
	off := run(nil)
	on := run(telemetry.NewRegistry())
	if len(off) != len(on) {
		t.Fatalf("trace length diverged: off=%d on=%d", len(off), len(on))
	}
	for i := range off {
		if off[i] != on[i] {
			t.Fatalf("trace diverged at event %d: off=%v on=%v", i, off[i], on[i])
		}
	}
}

// benchRun drives one E1-style execution; tel == nil exercises the disabled
// path (the production default), non-nil the fully metered path.
func benchRun(b *testing.B, tel *telemetry.Registry, steps int) {
	sys := buildDetector(b, 8, system.NoFaults())
	sched.RoundRobin(sys, wire(sys, tel, sched.Options{MaxSteps: steps}))
	if sys.Steps() == 0 {
		b.Fatal("no steps executed")
	}
}

// BenchmarkE1TelemetryOff measures the disabled path: every instrumentation
// site reduces to one nil-check branch on the nil registry.  CI compares
// this against BenchmarkE1TelemetryOn; the Off/On pair bounds what the
// instrumentation sites can cost (the ≤2% disabled-vs-seed budget was measured at PR time
// against the pre-telemetry tree — see DESIGN.md §10).
func BenchmarkE1TelemetryOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, nil, 20_000)
	}
}

// BenchmarkE1TelemetryOn measures the fully metered path: counters, task
// vector, channel-depth histogram, and the trace ring all live.
func BenchmarkE1TelemetryOn(b *testing.B) {
	reg := telemetry.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRun(b, reg, 20_000)
	}
}
