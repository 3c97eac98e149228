package valence

import (
	"testing"

	"repro/internal/afd"
	"repro/internal/telemetry"
)

// TestProgressFinalReport pins the Progress contract at one worker and at
// several: the hook fires at least once, exactly the last report has Done
// set, and that final report carries the finished totals — Nodes ==
// NumNodes() and Edges == NumEdges() — so a consumer (hookfind's status line,
// the telemetry gauges) can trust the Done report without re-querying the
// explorer.
func TestProgressFinalReport(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"one-worker", 1},
		{"parallel", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var reports []Progress
			e, err := New(Config{
				N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 4, nil),
				Workers:       tc.workers,
				ProgressEvery: 16, // small interval: force interim reports too
				Progress: func(p Progress) bool {
					reports = append(reports, p)
					return true
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Explore(); err != nil {
				t.Fatal(err)
			}
			if len(reports) == 0 {
				t.Fatal("Progress hook never called")
			}
			for i, p := range reports[:len(reports)-1] {
				if p.Done {
					t.Errorf("interim report %d/%d has Done set", i, len(reports))
				}
			}
			last := reports[len(reports)-1]
			if !last.Done {
				t.Fatalf("final report not marked Done: %+v", last)
			}
			if last.Nodes != int64(e.NumNodes()) || last.Edges != int64(e.NumEdges()) {
				t.Errorf("final report = %d nodes / %d edges, explorer has %d / %d",
					last.Nodes, last.Edges, e.NumNodes(), e.NumEdges())
			}
		})
	}
}

// TestExploreTelemetryConsistent cross-checks the valence metric plane
// against the explorer's own totals after a metered exploration.
func TestExploreTelemetryConsistent(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := explore(t, Config{
		N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 5, nil),
		Workers: 2, Telemetry: reg,
	})
	if got := reg.Value(telemetry.CValenceNodes); got != int64(e.NumNodes()) {
		t.Errorf("valence_nodes = %d, want NumNodes() = %d", got, e.NumNodes())
	}
	if got := reg.Value(telemetry.CValenceEdges); got != int64(e.NumEdges()) {
		t.Errorf("valence_edges = %d, want NumEdges() = %d", got, e.NumEdges())
	}
	if reg.Value(telemetry.CValenceExpansions) == 0 {
		t.Error("valence_expansions = 0 after an exploration")
	}
	if got := reg.Value(telemetry.GValenceWorkers); got != 2 {
		t.Errorf("valence_workers gauge = %d, want 2", got)
	}
	if reg.Value(telemetry.GValenceFrontierPeak) == 0 {
		t.Error("valence_frontier_peak = 0 after an exploration")
	}
}
