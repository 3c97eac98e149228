package causal

import (
	"bytes"
	"strings"
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

func gossipTarget(t *testing.T) chaos.Target {
	t.Helper()
	target, err := chaos.ParseTarget("gossip:" + afd.FamilyEvQ + ">" + afd.FamilyEvP)
	if err != nil {
		t.Fatal(err)
	}
	return target
}

func execute(t *testing.T, r chaos.Run) *trace.Artifact {
	t.Helper()
	v, err := chaos.Execute(r)
	if err != nil {
		t.Fatal(err)
	}
	return v.Artifact()
}

// checkChain asserts a chain is contiguous in the DAG: every consecutive
// pair is connected by a recorded edge of the named kind.
func checkChain(t *testing.T, d *DAG, ex *Explanation) {
	t.Helper()
	if len(ex.Chain) == 0 {
		t.Fatal("empty chain")
	}
	if ex.Chain[0].Event != ex.Origin {
		t.Fatalf("chain starts at %d, origin %d", ex.Chain[0].Event, ex.Origin)
	}
	if last := ex.Chain[len(ex.Chain)-1].Event; last != ex.Transition.Event {
		t.Fatalf("chain ends at %d, transition %d", last, ex.Transition.Event)
	}
	for k := 0; k+1 < len(ex.Chain); k++ {
		from, to := ex.Chain[k], ex.Chain[k+1]
		found := false
		for _, e := range d.Preds(to.Event) {
			if e.From == from.Event && e.Kind.String() == from.EdgeToNext {
				found = true
				if !e.Verified {
					t.Fatalf("chain uses unverified edge %+v", e)
				}
			}
		}
		if !found {
			t.Fatalf("chain link %d→%d (%s) not an edge of the DAG",
				from.Event, to.Event, from.EdgeToNext)
		}
	}
}

func TestBuildReliableGossip(t *testing.T) {
	a := execute(t, chaos.Run{
		Target: gossipTarget(t), N: 4,
		Plan:  system.CrashOf(3),
		Sched: chaos.SchedRoundRobin,
	})
	if a.Verdict != "" {
		t.Fatalf("run failed its spec: %s", a.Verdict)
	}
	d, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Verification.Ok() {
		t.Fatalf("verification failed: %+v", d.Verification)
	}
	if d.Verification.MessageEdges == 0 {
		t.Fatal("no message edges derived from a gossiping mesh")
	}
	if d.Verification.OracleEvents != len(a.Trace) {
		t.Fatalf("oracle observed %d events, trace has %d",
			d.Verification.OracleEvents, len(a.Trace))
	}
	for _, e := range d.Edges {
		if e.From >= e.To {
			t.Fatalf("non-forward edge %+v", e)
		}
	}

	trs := d.Transitions()
	if len(trs) == 0 {
		t.Fatal("no suspicion transitions in a crashing run")
	}
	var pick *Transition
	for i := range trs {
		if containsLoc(trs[i].Added, 3) {
			pick = &trs[i]
			break
		}
	}
	if pick == nil {
		t.Fatal("no observer ever suspected the crashed location")
	}
	ex, err := d.Explain(*pick, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.OriginIsCrash {
		t.Fatalf("suspicion of the crashed location not rooted in its crash: origin %v",
			d.Events[ex.Origin])
	}
	if got := d.Events[ex.Origin]; got.Kind != ioa.KindCrash || got.Loc != 3 {
		t.Fatalf("origin = %v", got)
	}
	if !ex.Added || ex.Subject != 3 {
		t.Fatalf("explanation = %+v", ex)
	}
	checkChain(t, d, ex)

	// Explaining an uninvolved subject must refuse.
	if _, err := d.Explain(*pick, ioa.Loc(99)); err == nil {
		t.Fatal("explained a subject the transition does not touch")
	}
}

func TestBuildLossyRing(t *testing.T) {
	topo, err := system.ParseTopology(4, "ring")
	if err != nil {
		t.Fatal(err)
	}
	a := execute(t, chaos.Run{
		Target: gossipTarget(t), N: 4,
		Plan:  system.CrashOf(3),
		Sched: chaos.SchedRandom, Seed: 11,
		Net: system.NetSpec{Topo: topo, Seed: 7, Drop: 100, Dup: 40, Reorder: 40},
	})
	d, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Verification.Ok() {
		t.Fatalf("verification failed on lossy ring: %+v", d.Verification)
	}
	if len(a.NetLog) == 0 {
		t.Fatal("lossy run recorded no link events; the NetLog cross-check tested nothing")
	}
	if d.Verification.MessageEdges == 0 {
		t.Fatal("no message edges on the lossy ring")
	}

	// The oracle's shadow re-derives every decision, so a NetLog that
	// disagrees with it — one entry altered, or one removed — must build a
	// DAG that fails verification.
	altered := *a
	altered.NetLog = append([]trace.LinkEvent(nil), a.NetLog...)
	altered.NetLog[0].Seq++
	removed := *a
	removed.NetLog = a.NetLog[1:]
	for name, forged := range map[string]*trace.Artifact{"altered": &altered, "removed": &removed} {
		d, err := Build(forged)
		if err != nil {
			t.Fatalf("%s NetLog: %v", name, err)
		}
		if d.Verification.Ok() {
			t.Errorf("%s NetLog entry passed verification: %+v", name, d.Verification)
		}
	}
}

func TestBuildRejectsTamperedArtifact(t *testing.T) {
	a := execute(t, chaos.Run{
		Target: gossipTarget(t), N: 3,
		Plan:  system.CrashOf(2),
		Sched: chaos.SchedRoundRobin,
	})
	// Corrupt one delivered payload: the fresh system must reject the trace
	// (the forged event is not enabled), so provenance cannot be built from
	// a record the engines never executed.
	for i, act := range a.Trace {
		if act.Kind == ioa.KindReceive {
			a.Trace[i].Payload = act.Payload + "-forged"
			break
		}
	}
	if _, err := Build(a); err == nil {
		t.Fatal("built a DAG from a tampered trace")
	}
}

func TestEmitFlows(t *testing.T) {
	// A hand-built DAG whose minimal chain must cross a message edge: a
	// gossiped suspicion (send → deliver → FD output).  Real gossip DAGs
	// often explain suspicions through the detector automaton's local
	// program order, which draws no arrows — this pins the arrow path.
	d := &DAG{
		N: 2,
		Events: trace.T{
			ioa.Send(0, 1, "{0}"),
			ioa.Receive(1, 0, "{0}"),
			ioa.FDOutput("FD-P", 1, "{0}"),
		},
		Edges: []Edge{
			{From: 0, To: 1, Kind: EdgeMessage, Verified: true},
			{From: 1, To: 2, Kind: EdgeProgram, Verified: true},
		},
		preds: [][]int32{{}, {0}, {1}},
	}
	trs := d.Transitions()
	if len(trs) != 1 {
		t.Fatalf("transitions = %+v", trs)
	}
	ex, err := d.Explain(trs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.OriginIsCrash || ex.Origin != 0 || len(ex.Chain) != 3 {
		t.Fatalf("explanation = %+v", ex)
	}
	reg := telemetry.NewRegistry()
	arrows := EmitFlows(reg, d, ex)
	if arrows != 1 {
		t.Fatalf("arrows = %d, want 1", arrows)
	}
	var buf bytes.Buffer
	if err := reg.Trace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ph":"s"`, `"ph":"f"`, `"bp":"e"`, `"cat":"causal"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome trace missing %s:\n%s", want, out[:min(len(out), 400)])
		}
	}
}

// The same engine must work unchanged on a stamped live artifact: the DAG
// builds, verifies, and the QoS layer reports wall-clock figures.
func TestBuildLiveArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("live run in -short mode")
	}
	rep, err := live.RunTarget(live.RunSpec{
		Target: gossipTarget(t), N: 3,
		Plan: system.CrashOf(2),
		Opts: live.Options{Seed: 1, MaxSteps: chaos.DefaultSteps(3), Duration: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.VerdictErr != nil || rep.ReplayErr != nil {
		t.Fatalf("live run invalid: verdict=%v replay=%v", rep.VerdictErr, rep.ReplayErr)
	}
	d, err := Build(rep.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Verification.Ok() {
		t.Fatalf("live verification failed: %+v", d.Verification)
	}
	if d.StampNs(len(d.Events)-1) < 0 {
		t.Fatal("live DAG lost its stamps")
	}
	stats := Compute(d.Events, d.Stamps)
	for _, s := range stats {
		if s.Family != afd.FamilyEvP {
			continue
		}
		if len(s.Detections) == 0 {
			t.Fatalf("no detections in the boosted family: %+v", s)
		}
		for _, det := range s.Detections {
			if det.Ns <= 0 {
				t.Fatalf("stamped detection has no wall-clock figure: %+v", det)
			}
		}
		return
	}
	t.Fatalf("no stats for %s: %+v", afd.FamilyEvP, stats)
}
