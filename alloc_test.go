// Steady-state allocation pins for the two hot engines (E1's event loop and
// the valence explorer's encode path live in their packages; this file pins
// the composed Figure-1 system).  The contract under test: once ring buffers,
// ready-set words, and routing caches have grown to their working size, an
// Apply/NextReady cycle performs no heap allocation at all — under TraceOff,
// under a full TraceRing, with a metrics-only telemetry sink attached, and
// with process automata decoding suspicion-set payloads.
// testing.AllocsPerRun is exact here (it runs on one P with GC pinned), so
// the assertions are == 0, not a budget.
package repro

import (
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/transform"
)

// e1System builds the E1 benchmark composition: the Figure-1 P-family
// detector over n locations, n×(n-1) reliable channels, and a crash
// automaton, in TraceOff mode.
func e1System(tb testing.TB, n int, plan system.FaultPlan) *ioa.System {
	tb.Helper()
	d, err := afd.Lookup(afd.FamilyP, n)
	if err != nil {
		tb.Fatal(err)
	}
	autos := []ioa.Automaton{d.Automaton(n)}
	autos = append(autos, system.Channels(n)...)
	autos = append(autos, system.NewCrash(plan))
	sys := ioa.MustNewSystem(autos...)
	sys.SetTraceMode(ioa.TraceOff, 0)
	return sys
}

// driveReady applies `steps` events through the incremental ready-set — a
// NextReady scan resumed after each ApplyReady, restarting from -1 when the
// scan runs dry.  This is the same loop shape sched.RoundRobin uses, so the
// allocations it measures are the ones every E1-style driver pays.
func driveReady(tb testing.TB, sys *ioa.System, steps int) {
	fired := 0
	for fired < steps {
		idx, ok := sys.NextReady(-1)
		if !ok {
			tb.Fatalf("system quiesced after %d events", fired)
		}
		for ok && fired < steps {
			sys.ApplyReady(idx)
			fired++
			idx, ok = sys.NextReady(idx)
		}
	}
}

// TestE1ApplySteadyStateAllocs pins the tentpole: zero heap allocations per
// Apply+NextReady cycle on the E1 composition once warm.
func TestE1ApplySteadyStateAllocs(t *testing.T) {
	sys := e1System(t, 4, system.NoFaults())
	driveReady(t, sys, 20_000) // grow rings and caches to working size
	if avg := testing.AllocsPerRun(10, func() {
		driveReady(t, sys, 1_000)
	}); avg != 0 {
		t.Fatalf("steady-state Apply/NextReady allocates: %.2f allocs per 1000 events, want 0", avg)
	}
}

// TestE1TraceModesSteadyStateHeap is the bounded-memory regression test for
// the trace modes: a full TraceRing evicts in place (zero allocations per
// event, length pinned at cap) and TraceOff retains nothing.  TraceAll is
// exempt by design — it exists to keep whole traces.
func TestE1TraceModesSteadyStateHeap(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		const cap = 256
		sys := e1System(t, 4, system.NoFaults())
		sys.SetTraceMode(ioa.TraceRing, cap)
		driveReady(t, sys, 20_000) // far past cap: ring is in eviction mode
		if avg := testing.AllocsPerRun(10, func() {
			driveReady(t, sys, 1_000)
		}); avg != 0 {
			t.Fatalf("full TraceRing allocates: %.2f allocs per 1000 events, want 0", avg)
		}
		if got := len(sys.Trace()); got != cap {
			t.Fatalf("TraceRing retained %d events, want cap %d", got, cap)
		}
	})
	t.Run("off", func(t *testing.T) {
		sys := e1System(t, 4, system.NoFaults())
		driveReady(t, sys, 20_000)
		if got := len(sys.Trace()); got != 0 {
			t.Fatalf("TraceOff retained %d events, want 0", got)
		}
	})
}

// TestE1TelemetryOnAllocs pins the satellite contract of the telemetry hook:
// with a metrics-only Registry attached (tracing plane not enabled), the
// steady-state event loop — including the crash instant, whose rich
// act.String() label is gated on TracingActive — stays at zero allocations.
func TestE1TelemetryOnAllocs(t *testing.T) {
	sys := e1System(t, 4, system.CrashOf(ioa.Loc(1)))
	reg := telemetry.NewRegistry()
	sys.SetTelemetry(reg)
	driveReady(t, sys, 20_000)
	if avg := testing.AllocsPerRun(10, func() {
		driveReady(t, sys, 1_000)
	}); avg != 0 {
		t.Fatalf("metrics-only telemetry allocates: %.2f allocs per 1000 events, want 0", avg)
	}

	// The crash path specifically: re-delivering crash_1 exercises
	// telemetryApply's KindCrash branch, the one that formats a rich
	// act.String() label when — and only when — a trace exporter is
	// attached.  Crash delivery itself allocates by design (it invalidates
	// the detector's payload cache, which the next repoll rebuilds), so the
	// pin is relative: the metrics-only instant must add *zero* allocations
	// over an identical system with no telemetry at all.
	crashApplyAllocs := func(sys *ioa.System) float64 {
		crash := ioa.Crash(ioa.Loc(1))
		sys.Apply(-1, crash) // warm the first-crash state transitions
		return testing.AllocsPerRun(50, func() {
			sys.Apply(-1, crash)
		})
	}
	bare := e1System(t, 4, system.CrashOf(ioa.Loc(1)))
	driveReady(t, bare, 20_000)
	base := crashApplyAllocs(bare)
	before := reg.Value(telemetry.CCrashes)
	if got := crashApplyAllocs(sys); got != base {
		t.Fatalf("crash instant with metrics-only telemetry: %.2f allocs per event, want the bare system's %.2f", got, base)
	}
	if after := reg.Value(telemetry.CCrashes); after <= before {
		t.Fatalf("crash counter did not advance (%d -> %d): the gated path was not exercised", before, after)
	}
}

// TestGossipApplySteadyStateAllocs extends the pin to process automata: the
// completeness-boosting gossip stack (gossip:FD-◇Q>FD-◇P, n=4, location 1
// crashing), once every location's suspicion sets are stable.  Each FD
// input then decodes its payload and the senders' latest sets into
// bitmasks, re-emits the cached union string, and queues the output
// straight into the process's outbox, so a cycle allocates nothing.
func TestGossipApplySteadyStateAllocs(t *testing.T) {
	const n = 4
	src, err := afd.Lookup(afd.FamilyEvQ, n)
	if err != nil {
		t.Fatal(err)
	}
	autos := []ioa.Automaton{src.Automaton(n)}
	autos = append(autos, transform.Gossip{From: afd.FamilyEvQ, To: afd.FamilyEvP}.Procs(n)...)
	autos = append(autos, system.Channels(n)...)
	autos = append(autos, system.NewCrash(system.CrashOf(ioa.Loc(1))))
	sys := ioa.MustNewSystem(autos...)
	sys.SetTraceMode(ioa.TraceOff, 0)
	driveReady(t, sys, 20_000) // past the crash and every suspicion change
	if avg := testing.AllocsPerRun(10, func() {
		driveReady(t, sys, 1_000)
	}); avg != 0 {
		t.Fatalf("steady-state gossip Apply/NextReady allocates: %.2f allocs per 1000 events, want 0", avg)
	}
}
