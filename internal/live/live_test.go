package live

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func mustTarget(t *testing.T, id string) chaos.Target {
	t.Helper()
	target, err := chaos.ParseTarget(id)
	if err != nil {
		t.Fatalf("ParseTarget(%q): %v", id, err)
	}
	return target
}

// TestLiveOmegaStackValidates is the acceptance-criteria run: a live n=3
// EvQ>EvP>Ω execution on the in-process transport must produce an artifact
// that passes all checkers and replays byte-validated through the simulated
// engine.
func TestLiveOmegaStackValidates(t *testing.T) {
	rep, err := RunTarget(RunSpec{
		Target: mustTarget(t, "gossip:FD-◇Q>FD-◇P>FD-Ω"),
		N:      3,
		Opts:   Options{Seed: 1, Duration: 10 * time.Second},
	})
	if err != nil {
		t.Fatalf("RunTarget: %v", err)
	}
	if rep.VerdictErr != nil {
		t.Errorf("live trace violates spec: %v", rep.VerdictErr)
	}
	if rep.ReplayErr != nil {
		t.Errorf("cross-engine replay: %v", rep.ReplayErr)
	}
	if !rep.Fair {
		t.Errorf("run without partitions reported unfair")
	}
	if rep.Result.Steps == 0 || len(rep.Artifact.Trace) == 0 {
		t.Fatalf("empty run: steps=%d trace=%d", rep.Result.Steps, len(rep.Artifact.Trace))
	}
	if got, want := rep.Artifact.Sched, SchedLive; got != want {
		t.Errorf("artifact sched = %q, want %q", got, want)
	}
	if len(rep.Result.Stamps) != len(rep.Result.Trace) {
		t.Errorf("stamps not parallel to trace: %d vs %d", len(rep.Result.Stamps), len(rep.Result.Trace))
	}
	for i := 1; i < len(rep.Result.Stamps); i++ {
		if rep.Result.Stamps[i] < rep.Result.Stamps[i-1] {
			t.Fatalf("stamp %d goes backwards: %d < %d", i, rep.Result.Stamps[i], rep.Result.Stamps[i-1])
		}
	}
}

// TestLiveArtifactReplays: a live artifact survives its JSON round trip and
// chaos.Replay accepts it.  No scheduler can re-execute wall-clock timing,
// so Replay certifies the trace by the cross-engine pass alone and reports
// the recorded verdict; one forged event makes it fail.
func TestLiveArtifactReplays(t *testing.T) {
	rep, err := RunTarget(RunSpec{
		Target: mustTarget(t, "gossip:FD-◇Q>FD-◇P"),
		N:      4,
		Plan:   system.CrashOf(2),
		Opts:   Options{Seed: 4, Duration: 10 * time.Second, CrashAfter: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("RunTarget: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("live run not clean: verdict %v, replay %v", rep.VerdictErr, rep.ReplayErr)
	}
	var buf bytes.Buffer
	if err := trace.WriteArtifact(&buf, rep.Artifact); err != nil {
		t.Fatal(err)
	}
	read := func() *trace.Artifact {
		a, err := trace.ReadArtifact(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	v, err := chaos.Replay(read())
	if err != nil {
		t.Fatalf("chaos.Replay of the live artifact: %v", err)
	}
	if v.Failed() || v.Steps != rep.Result.Steps || !trace.Equal(v.Trace, rep.Result.Trace) {
		t.Errorf("replayed verdict: failed=%v steps=%d events=%d, recorded ok, %d steps, %d events",
			v.Failed(), v.Steps, len(v.Trace), rep.Result.Steps, len(rep.Result.Trace))
	}

	recorded := read()
	recorded.Verdict = "a verdict the artifact records"
	if v, err := chaos.Replay(recorded); err != nil || !v.Failed() || v.Err.Error() != recorded.Verdict {
		t.Errorf("replay reports verdict %v (err %v), want the recorded %q", v.Err, err, recorded.Verdict)
	}

	forged := read()
	k := len(forged.Trace) / 2
	for forged.Trace[k].Name != "FD-◇P" {
		k++
	}
	if forged.Trace[k].Payload == "{0,1,2,3}" {
		forged.Trace[k].Payload = "{}"
	} else {
		forged.Trace[k].Payload = "{0,1,2,3}"
	}
	if _, err := chaos.Replay(forged); err == nil {
		t.Errorf("chaos.Replay accepted a live artifact with event %d forged to %v", k, forged.Trace[k])
	}
}

// TestLiveCrashRealized: a planned crash is released mid-run by the crash
// service and survives validation.
func TestLiveCrashRealized(t *testing.T) {
	rep, err := RunTarget(RunSpec{
		Target: mustTarget(t, "gossip:FD-◇Q>FD-◇P"),
		N:      3,
		Plan:   system.CrashOf(1),
		Opts:   Options{Seed: 2, Duration: 10 * time.Second, CrashAfter: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("RunTarget: %v", err)
	}
	if rep.VerdictErr != nil {
		t.Errorf("live crash trace violates spec: %v", rep.VerdictErr)
	}
	if rep.ReplayErr != nil {
		t.Errorf("cross-engine replay: %v", rep.ReplayErr)
	}
	crashes := 0
	for _, a := range rep.Artifact.Trace {
		if a.Name == "crash" {
			crashes++
		}
	}
	if crashes != 1 {
		t.Errorf("trace has %d crash events, want 1", crashes)
	}
}

// TestLiveURBQuiesces: the quiescing URB target ends via the quiescence
// watchdog, not the step bound.
func TestLiveURBQuiesces(t *testing.T) {
	rep, err := RunTarget(RunSpec{
		Target: mustTarget(t, "urb:majority"),
		N:      3,
		Opts:   Options{Seed: 3, Duration: 10 * time.Second},
	})
	if err != nil {
		t.Fatalf("RunTarget: %v", err)
	}
	if rep.VerdictErr != nil {
		t.Errorf("live URB trace violates spec: %v", rep.VerdictErr)
	}
	if rep.ReplayErr != nil {
		t.Errorf("cross-engine replay: %v", rep.ReplayErr)
	}
	if rep.Result.Reason != ReasonQuiescent && rep.Result.Reason != ReasonStop {
		t.Errorf("URB run ended with %q, want quiescent or stop", rep.Result.Reason)
	}
}

// TestLiveTelemetryPlane: the live loop reports its metrics through the
// standard registry.
func TestLiveTelemetryPlane(t *testing.T) {
	reg := telemetry.NewRegistry()
	rep, err := RunTarget(RunSpec{
		Target: mustTarget(t, "gossip:FD-Q>FD-P"),
		N:      3,
		Opts:   Options{Seed: 4, Duration: 10 * time.Second, Telemetry: reg},
	})
	if err != nil {
		t.Fatalf("RunTarget: %v", err)
	}
	if rep.VerdictErr != nil || rep.ReplayErr != nil {
		t.Fatalf("verdict=%v replay=%v", rep.VerdictErr, rep.ReplayErr)
	}
	if v := reg.Value(telemetry.CLiveSignals); v == 0 {
		t.Errorf("live_signals counter stayed zero")
	}
	if v := reg.Value(telemetry.CSchedSteps); v == 0 {
		t.Errorf("sched_steps counter stayed zero")
	}
	if v := reg.Value(telemetry.CEventsApplied); int(v) != rep.Result.Steps {
		t.Errorf("events_applied = %d, want %d", v, rep.Result.Steps)
	}
	if v := reg.Value(telemetry.GLiveServices); v != 0 {
		t.Errorf("live_services gauge = %d after teardown, want 0", v)
	}
}

// TestLiveStopEarly: an external Stop ends the run promptly with the
// stopped reason and an internally consistent result.
func TestLiveStopEarly(t *testing.T) {
	target := mustTarget(t, "gossip:FD-◇Q>FD-◇P")
	b, err := target.Build(3, system.NoFaults(), nil, false)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rt, err := New(b.Sys, Options{Seed: 5, Duration: 30 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	time.Sleep(5 * time.Millisecond)
	go rt.Stop()
	res := rt.Wait()
	if res.Reason != ReasonStopped {
		t.Errorf("reason = %q, want %q", res.Reason, ReasonStopped)
	}
	if len(res.Stamps) != len(res.Trace) {
		t.Errorf("stamps not parallel to trace: %d vs %d", len(res.Stamps), len(res.Trace))
	}
}

// TestLiveSoak hammers start/run/stop cycles across transports and targets
// so the race detector sees repeated concurrent lifecycles (leaked
// listeners, double-stops, deliver-after-stop would all surface here).
func TestLiveSoak(t *testing.T) {
	cycles := 8
	if testing.Short() {
		cycles = 3
	}
	ids := []string{"gossip:FD-◇Q>FD-◇P>FD-Ω", "urb:majority"}
	for i := 0; i < cycles; i++ {
		id := ids[i%len(ids)]
		spec := RunSpec{
			Target: mustTarget(t, id),
			N:      3,
			Opts: Options{
				Seed:     int64(100 + i),
				Duration: 10 * time.Second,
				MaxSteps: 600, // short cycles: lifecycle pressure, not liveness
			},
		}
		if i%2 == 1 {
			tcp, err := NewTCPTransport()
			if err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
			spec.Opts.Transport = tcp
		}
		rep, err := RunTarget(spec)
		if err != nil {
			t.Fatalf("cycle %d (%s): %v", i, id, err)
		}
		if rep.ReplayErr != nil {
			t.Fatalf("cycle %d (%s): replay: %v", i, id, rep.ReplayErr)
		}
		// Short runs need not satisfy liveness clauses; safety violations
		// would still land in VerdictErr for the quiescing URB target,
		// whose runs complete.
		if id == "urb:majority" && rep.VerdictErr != nil {
			t.Fatalf("cycle %d: URB verdict: %v", i, rep.VerdictErr)
		}
	}
}

// TestLiveStampGrowth pins what the stamp log costs.  It doubles when full,
// as ioa.System's event log does, so stamping 100,000 events allocates at
// most 3x the bytes the stamps occupy (growing by ~1.25x, as append does,
// costs about 5x).  The event log is reserved up front and the detector
// target sends nothing, so the stamp log is all that grows.
func TestLiveStampGrowth(t *testing.T) {
	const warm, events = 1_000, 100_000
	b, err := mustTarget(t, "detector:FD-P").Build(4, system.NoFaults(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	b.Sys.ReserveTrace(warm + events)
	rt, err := New(b.Sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt.start = time.Now()
	fire := func(k int) {
		for i := 0; i < k; i++ {
			idx, ok := b.Sys.NextReady(-1)
			if !ok {
				t.Fatalf("system quiesced after %d events", i)
			}
			rt.applyLocked(idx)
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	fire(warm) // fill the detector's payload caches
	rt.stamps = nil
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fire(events)
	runtime.ReadMemStats(&after)
	if got := len(rt.stamps); got != events {
		t.Fatalf("stamped %d events, want %d", got, events)
	}
	stampBytes := uint64(events) * 8
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 3*stampBytes {
		t.Fatalf("stamping %d events allocated %d bytes, %.2fx the %d bytes they occupy; want at most 3x",
			events, alloc, float64(alloc)/float64(stampBytes), stampBytes)
	}
}

// startFails is a transport that cannot start, as a TCP transport whose
// listener is gone cannot.
type startFails struct{}

func (startFails) Start(func(Link)) error { return Infra(errors.New("listener gone")) }
func (startFails) Send(Link)              {}
func (startFails) Partition(uint64)       {}
func (startFails) Stop()                  {}

// TestLiveStartFailureStopsReplay: when the transport cannot start, RunTarget
// returns its ErrInfra error, and the replay it set to follow the run stops
// with it — no goroutine outlives RunTarget.
func TestLiveStartFailureStopsReplay(t *testing.T) {
	baseline := runtime.NumGoroutine()
	_, err := RunTarget(RunSpec{
		Target: mustTarget(t, "gossip:FD-◇Q>FD-◇P"),
		N:      3,
		Opts:   Options{Transport: startFails{}},
	})
	if !errors.Is(err, ErrInfra) {
		t.Fatalf("RunTarget over a transport that cannot start: %v, want an ErrInfra error", err)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after RunTarget returned, %d before", n, baseline)
	}
}
