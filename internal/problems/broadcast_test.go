package problems_test

import (
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
	. "repro/internal/problems"
	"repro/internal/trace"
)

func urbProject(t trace.T) trace.T {
	return trace.Project(t, func(a ioa.Action) bool {
		switch {
		case a.Kind == ioa.KindCrash:
			return true
		case a.Kind == ioa.KindEnvIn && a.Name == ActNameBroadcast:
			return true
		case a.Kind == ioa.KindEnvOut && a.Name == ActNameDeliver:
			return true
		}
		return false
	})
}

func runURB(t *testing.T, n int, perfect bool, crash []ioa.Loc, seed int64, gate int) trace.T {
	t.Helper()
	id := "urb:majority"
	if perfect {
		id = "urb:P"
	}
	return drive(build(t, id, n, crash), seed, 30_000, gate)
}

// TestURBMajority: the detector-free diffusion algorithm satisfies URB with
// f < n/2 crashes, including crashes of broadcasters mid-diffusion.
func TestURBMajority(t *testing.T) {
	cases := []struct {
		n     int
		crash []ioa.Loc
	}{
		{3, nil},
		{3, []ioa.Loc{2}},
		{5, []ioa.Loc{0, 4}},
	}
	for _, tc := range cases {
		for _, seed := range []int64{-1, 1, 4} {
			tr := urbProject(runURB(t, tc.n, false, tc.crash, seed, 15))
			if err := (URBSpec{N: tc.n}).Check(tr, true); err != nil {
				t.Fatalf("n=%d crash=%v seed=%d: %v", tc.n, tc.crash, seed, err)
			}
		}
	}
}

// TestURBPerfect: the P-based variant survives n−1 crashes.
func TestURBPerfect(t *testing.T) {
	cases := []struct {
		n     int
		crash []ioa.Loc
	}{
		{3, []ioa.Loc{0, 1}},
		{4, []ioa.Loc{1, 2, 3}},
	}
	for _, tc := range cases {
		for _, seed := range []int64{-1, 2} {
			tr := urbProject(runURB(t, tc.n, true, tc.crash, seed, 25))
			if err := (URBSpec{N: tc.n}).Check(tr, true); err != nil {
				t.Fatalf("n=%d crash=%v seed=%d: %v", tc.n, tc.crash, seed, err)
			}
		}
	}
}

func TestURBSpecRejectsViolations(t *testing.T) {
	spec := URBSpec{N: 2}
	bcast := func(i ioa.Loc, v string) ioa.Action { return ioa.EnvInput(ActNameBroadcast, i, v) }
	del := func(i ioa.Loc, p string) ioa.Action { return ioa.EnvOutput(ActNameDeliver, i, p) }

	if err := spec.Check(trace.T{del(0, "1:1:x")}, true); err == nil {
		t.Error("delivery of never-broadcast message accepted")
	}
	if err := spec.Check(trace.T{bcast(1, "x"), del(0, "1:1:y")}, true); err == nil {
		t.Error("corrupted payload accepted")
	}
	if err := spec.Check(trace.T{bcast(1, "x"), del(0, "1:1:x"), del(0, "1:1:x"), del(1, "1:1:x")}, true); err == nil {
		t.Error("duplicate delivery accepted")
	}
	if err := spec.Check(trace.T{bcast(0, "x"), del(0, "0:1:x")}, true); err == nil {
		t.Error("live location missing delivery accepted (validity)")
	}
	// Uniform agreement: location 1 delivered then crashed; live 0 did not.
	if err := spec.Check(trace.T{bcast(1, "x"), del(1, "1:1:x"), ioa.Crash(1)}, true); err == nil {
		t.Error("uniform agreement violation accepted")
	}
	ok := trace.T{bcast(1, "x"), del(1, "1:1:x"), del(0, "1:1:x"), ioa.Crash(1)}
	if err := spec.Check(ok, true); err != nil {
		t.Errorf("valid URB trace rejected: %v", err)
	}
}

// runTRB runs TRB over P with location 0 as the sender.
func runTRB(t *testing.T, n int, crash []ioa.Loc, seed int64, gate int) trace.T {
	t.Helper()
	return drive(build(t, "trb", n, crash), seed, 60_000, gate)
}

func trbProject(t trace.T) trace.T {
	return trace.Project(t, func(a ioa.Action) bool {
		switch {
		case a.Kind == ioa.KindCrash:
			return true
		case a.Kind == ioa.KindEnvIn && a.Name == ActNameTRBBcast:
			return true
		case a.Kind == ioa.KindEnvOut && a.Name == ActNameTRBDeliver:
			return true
		}
		return false
	})
}

// TestTRBSenderLive: with a live sender everyone delivers the value.
func TestTRBSenderLive(t *testing.T) {
	for _, seed := range []int64{-1, 1, 3} {
		tr := trbProject(runTRB(t, 3, nil, seed, 0))
		if err := (TRBSpec{N: 3, Sender: 0}).Check(tr, true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, a := range tr {
			if a.Kind == ioa.KindEnvOut && a.Payload == TRBSenderFaulty {
				t.Fatalf("seed %d: SF delivered with a live sender", seed)
			}
		}
	}
}

// TestTRBSenderCrashesEarly: a sender crashing before broadcasting yields SF
// everywhere; crashing mid-broadcast yields either verdict, agreed.
func TestTRBSenderCrashesEarly(t *testing.T) {
	for _, gate := range []int{0, 10, 40} {
		for _, seed := range []int64{-1, 2} {
			tr := trbProject(runTRB(t, 3, []ioa.Loc{0}, seed, gate))
			if err := (TRBSpec{N: 3, Sender: 0}).Check(tr, true); err != nil {
				t.Fatalf("gate %d seed %d: %v", gate, seed, err)
			}
		}
	}
}

func TestTRBSpecRejectsViolations(t *testing.T) {
	spec := TRBSpec{N: 2, Sender: 0}
	bcast := func(v string) ioa.Action { return ioa.EnvInput(ActNameTRBBcast, 0, v) }
	del := func(i ioa.Loc, v string) ioa.Action { return ioa.EnvOutput(ActNameTRBDeliver, i, v) }

	if err := spec.Check(trace.T{bcast("x"), del(0, "x"), del(1, "y")}, true); err == nil {
		t.Error("disagreement accepted")
	}
	if err := spec.Check(trace.T{bcast("x"), del(0, TRBSenderFaulty), del(1, TRBSenderFaulty)}, true); err == nil {
		t.Error("SF with live sender accepted (integrity)")
	}
	if err := spec.Check(trace.T{del(0, "x"), del(1, "x")}, true); err == nil {
		t.Error("delivery without broadcast accepted (validity)")
	}
	if err := spec.Check(trace.T{bcast("x"), del(0, "x")}, true); err == nil {
		t.Error("missing delivery accepted (termination)")
	}
	ok := trace.T{bcast("x"), del(0, "x"), del(1, "x")}
	if err := spec.Check(ok, true); err != nil {
		t.Errorf("valid TRB trace rejected: %v", err)
	}
}

// TestFailingVerdictTextIsStable gives the URB, TRB and ◇-mutex checkers
// traces that violate a clause at several locations.  The verdict's text
// is what a chaos artifact records and what the shrinker compares, so it
// must be a function of the trace: the same in every call, naming the
// first miss in location (and broadcast) order and its clause.
func TestFailingVerdictTextIsStable(t *testing.T) {
	bcast := func(i ioa.Loc, v string) ioa.Action { return ioa.EnvInput(ActNameBroadcast, i, v) }
	trbBcast := ioa.EnvInput(ActNameTRBBcast, 0, "v")
	trbDel := func(i ioa.Loc, v string) ioa.Action { return ioa.EnvOutput(ActNameTRBDeliver, i, v) }
	enter := func(i ioa.Loc) ioa.Action { return ioa.EnvOutput(ActNameEnter, i, "1") }
	exit := func(i ioa.Loc) ioa.Action { return ioa.EnvOutput(ActNameExit, i, "1") }
	for _, tc := range []struct {
		name  string
		check func() error
		want  string
	}{
		{"URB validity", func() error {
			return URBSpec{N: 5}.Check(trace.T{bcast(0, "a"), bcast(1, "b")}, true)
		}, "problems: live broadcast {0 1} not delivered at live 0 (validity)"},
		{"TRB agreement", func() error {
			return TRBSpec{N: 3}.Check(trace.T{trbBcast, trbDel(0, "v"), trbDel(1, "w"), trbDel(2, "x")}, true)
		}, `problems: deliveries disagree ("w" at 1 vs "v" at 0) (agreement)`},
		{"TRB termination", func() error {
			return TRBSpec{N: 5}.Check(trace.T{trbBcast, trbDel(0, "v")}, true)
		}, "problems: live location 1 never delivered (termination)"},
		{"◇-mutex progress", func() error {
			return MutexSpec{N: 4}.Check(trace.T{enter(0), exit(0)})
		}, "problems: live location 1 has 0 enters in the exclusive suffix, want ≥ 1 (progress)"},
	} {
		for i := 0; i < 50; i++ {
			err := tc.check()
			if err == nil || err.Error() != tc.want {
				t.Fatalf("%s, call %d: got %v, want %q", tc.name, i, err, tc.want)
			}
		}
	}
}

// TestTRBIsBounded: TRB traces satisfy the Section-7.3 bounded-length
// classifier with bound n — the contrast to ◇-mutex.
func TestTRBIsBounded(t *testing.T) {
	var traces []trace.T
	for _, seed := range []int64{-1, 1} {
		traces = append(traces, trbProject(runTRB(t, 3, nil, seed, 0)))
	}
	w := Witness{
		Traces:  traces,
		IsTrace: func(tt trace.T) error { return (TRBSpec{N: 3, Sender: 0}).Check(tt, false) },
		IsOutput: func(a ioa.Action) bool {
			return a.Kind == ioa.KindEnvOut && a.Name == ActNameTRBDeliver
		},
	}
	maxSeen, err := w.CheckBoundedLength(3)
	if err != nil {
		t.Fatal(err)
	}
	if maxSeen != 3 {
		t.Fatalf("maxlen = %d, want 3", maxSeen)
	}
	if err := w.CheckCrashIndependence(); err != nil {
		t.Fatalf("TRB traces should be crash independent: %v", err)
	}
}

func TestURBTRBRejectLeaderDetectors(t *testing.T) {
	if _, err := URBPerfectProcs(3, afd.FamilyOmega); err == nil {
		t.Error("URB-P must refuse Ω")
	}
	if _, err := TRBProcs(3, 0, afd.FamilyOmega); err == nil {
		t.Error("TRB must refuse Ω")
	}
}
