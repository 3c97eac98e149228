package chaos

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/trace"
)

// TestEveryKind runs every registered target kind at n=3 under each
// scheduler with one crash plan, through the checking machinery: a stride-1
// oracle with channel shadows finds no divergence and the target's checker
// passes; the artifact replays byte-identically through the cross-engine
// pass; and a second execution in the same process yields the same trace
// and verdict — Go re-randomizes every map range, so an iteration-order
// leak into the schedule shows up as a difference.  kset also runs at n=2,
// the only n where its binary proposals can break k-agreement.
func TestEveryKind(t *testing.T) {
	type kindAt struct {
		id string
		n  int
	}
	cases := []kindAt{{"kset", 2}}
	for _, id := range Kinds() {
		cases = append(cases, kindAt{id, 3})
	}
	for _, c := range cases {
		id, n := c.id, c.n
		target, err := ParseTarget(id)
		if err != nil {
			t.Fatal(err)
		}
		plan := system.NoFaults()
		if target.MaxT(n) > 0 {
			plan = system.CrashOf(0)
		}
		for _, sk := range Schedulers() {
			t.Run(fmt.Sprintf("%s/n=%d/%s", id, n, sk), func(t *testing.T) {
				r := Run{Target: target, N: n, Plan: plan, Gates: GateSpec{CrashAfter: 10, StarveFrom: -1, StarveTo: -1}, Sched: sk, Seed: 5}
				v, err := ExecuteInstrumented(r, OracleHook(nil))
				if err != nil {
					t.Fatal(err)
				}
				if v.Failed() {
					t.Fatalf("%d steps (%s): %v", v.Steps, v.Reason, v.Err)
				}
				if err := ReplayThroughSystem(v.Artifact()); err != nil {
					t.Fatalf("cross-engine replay: %v", err)
				}
				w, err := ExecuteInstrumented(r, OracleHook(nil))
				if err != nil {
					t.Fatal(err)
				}
				if !trace.Equal(v.Trace, w.Trace) || fmt.Sprint(v.Err) != fmt.Sprint(w.Err) {
					t.Fatalf("second execution differs: %d vs %d events, verdict %v vs %v",
						len(v.Trace), len(w.Trace), v.Err, w.Err)
				}
			})
		}
	}
}

// TestKindsCoverRegistry: Kinds names every registry row and every ID it
// lists round-trips through ParseTarget and ID, @ values included.
func TestKindsCoverRegistry(t *testing.T) {
	listed := make(map[string]bool)
	for _, id := range Kinds() {
		target, err := ParseTarget(id)
		if err != nil {
			t.Fatalf("ParseTarget(%q): %v", id, err)
		}
		if target.ID() != id {
			t.Errorf("ParseTarget(%q).ID() = %q", id, target.ID())
		}
		if r, ok := target.(registered); ok {
			listed[r.row.kind] = true
		}
	}
	for _, r := range registry {
		if !listed[r.kind] {
			t.Errorf("registry row %q missing from Kinds", r.kind)
		}
	}
	for _, id := range []string{"nbac@101", "participant:consensus@101", "consensus:FD-◇P@10101"} {
		target, err := ParseTarget(id)
		if err != nil {
			t.Errorf("ParseTarget(%q): %v", id, err)
			continue
		}
		if target.ID() != id {
			t.Errorf("ParseTarget(%q).ID() = %q", id, target.ID())
		}
	}
	for _, id := range []string{
		"trb@101", "detector:FD-P@1", "nbac@", "nbac@1,0", "nbac@121", "consensus:FD-Ω@201",
		"smachine:FD-P@011", "kset@21", "kset:FD-P", "smachine:", "urb:Q",
	} {
		if _, err := ParseTarget(id); err == nil {
			t.Errorf("ParseTarget(%q) accepted", id)
		}
	}
	// A value the binary environment cannot propose is an error at Build,
	// not a panic.
	bad := lookup("consensus:FD-Ω").(registered)
	bad.values = "201"
	if _, err := Execute(Run{Target: bad, N: 3}); err == nil {
		t.Errorf("%s at n=3 built", bad.ID())
	}
	// Values fix n: building at another location count is an error.
	nbac, err := ParseTarget("nbac@101")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(Run{Target: nbac, N: 4}); err == nil || !strings.Contains(err.Error(), "valid only at n=3") {
		t.Errorf("nbac@101 at n=4: %v", err)
	}
	v, err := Execute(Run{Target: nbac, N: 3})
	if err != nil || v.Failed() {
		t.Fatalf("nbac@101 at n=3: %v %v", err, v.Err)
	}
	for _, a := range v.Trace {
		if a.Kind == ioa.KindEnvOut && a.Payload != "abort" {
			t.Fatalf("a no vote committed: %v", a)
		}
	}
}
