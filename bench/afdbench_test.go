package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// runTiny runs workload s for ops ops and fails the test on an
// infrastructure error.
func runTiny(t *testing.T, s spec, ops int, traced bool) *record {
	t.Helper()
	rec, _, err := run(s, config{workload: s.name, seed: 3, ops: ops, trace: traced})
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return rec
}

// checkMetrics asserts that rec reports exactly the metrics ms, each with its
// unit, and that those on the workload's path are not zero.
func checkMetrics(t *testing.T, rec *record, ms []metric) {
	t.Helper()
	if len(rec.Metrics) != len(ms) {
		t.Errorf("%s: %d metrics, want %d", rec.Workload, len(rec.Metrics), len(ms))
	}
	for _, m := range ms {
		v, ok := rec.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("%s: no %s", rec.Workload, m.name)
		case v.Unit != m.unit:
			t.Errorf("%s: %s in %q, want %q", rec.Workload, m.name, v.Unit, m.unit)
		case m.bound > 0 && v.Value <= 0:
			t.Errorf("%s: end-to-end %s = %v", rec.Workload, m.name, v.Value)
		}
	}
}

func TestEveryWorkloadAtTinyOpCount(t *testing.T) {
	for _, s := range specs {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				// Two ops, so a traced run has a traced and an untraced op.
				rec := runTiny(t, s, 2, traced)
				if !rec.Correct || rec.Failed != 0 {
					t.Fatalf("traced=%t: correct=%t failed=%d: %v", traced, rec.Correct, rec.Failed, rec.Failures)
				}
				if traced {
					checkMetrics(t, rec, perLayer)
					if c := rec.Metrics["trace.coverage_min"].Value; c < 0.95 {
						t.Errorf("child spans cover %.3f of an op", c)
					}
				} else {
					checkMetrics(t, rec, endToEnd)
				}
				var out bytes.Buffer
				if err := rec.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
					t.Errorf("result line has keys %v", res)
				}
			}
		})
	}
}

func TestSameSeedRepeatsCounts(t *testing.T) {
	for _, name := range []string{wChaos, wValN2} {
		s, err := lookupSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b := runTiny(t, s, 24, true), runTiny(t, s, 24, true)
		for _, m := range perLayer {
			if !m.exact {
				continue
			}
			if x, y := a.Metrics[m.name].Value, b.Metrics[m.name].Value; x != y {
				t.Errorf("%s %s: %v then %v", name, m.name, x, y)
			}
		}
	}
}

// tamperedExplain forges a payload in one artifact after set-up.
type tamperedExplain struct{ explainQuery }

func (w *tamperedExplain) setup(seed int64) error {
	if err := w.explainQuery.setup(seed); err != nil {
		return err
	}
	a, err := trace.ReadArtifact(bytes.NewReader(w.arts[1]))
	if err != nil {
		return err
	}
	for i, act := range a.Trace {
		if act.Kind == ioa.KindReceive {
			a.Trace[i].Payload += "-forged"
			break
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteArtifact(&buf, a); err != nil {
		return err
	}
	w.arts[1] = buf.Bytes()
	return nil
}

func TestTamperedArtifactCountsAsFailedOp(t *testing.T) {
	s := spec{name: wExplain, make: func() workload { return &tamperedExplain{} }}
	rec := runTiny(t, s, 3, false)
	if rec.Failed != 1 || rec.Correct {
		t.Fatalf("failed=%d correct=%t, want one failed op: %v", rec.Failed, rec.Correct, rec.Failures)
	}
	if !strings.Contains(rec.Failures[0], "artifact 1") {
		t.Errorf("failure %q does not name the tampered artifact", rec.Failures[0])
	}
	if rec.Metrics["op_p50_ms"].Value <= 0 {
		t.Error("run stopped reporting after the failed op")
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the metrics the
// binary prints in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var b struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v", b.Paths)
	}
	if len(b.Workloads) != len(allWorkloads) {
		t.Errorf("%d workloads, registry has %d", len(b.Workloads), len(allWorkloads))
	}
	for i, w := range b.Workloads {
		if i < len(allWorkloads) && w.Name != allWorkloads[i] {
			t.Errorf("workload %d is %s, registry has %s", i, w.Name, allWorkloads[i])
		}
	}
	want := func(ms []metric) []entry {
		var es []entry
		for _, m := range ms {
			e := entry{Name: m.name, Unit: m.unit, Better: m.better}
			if m.bound > 0 {
				bound := m.bound
				e.Bound = &bound
			}
			es = append(es, e)
		}
		return es
	}
	for _, kind := range []struct {
		name     string
		got, reg []entry
	}{
		{"end_to_end", b.EndToEnd, want(endToEnd)},
		{"per_layer", b.PerLayer, want(perLayer)},
	} {
		g, _ := json.Marshal(kind.got)
		r, _ := json.Marshal(kind.reg)
		if !bytes.Equal(g, r) {
			t.Errorf("BENCHMARK.json %s differs from the registry, which has\n%s", kind.name, r)
		}
	}
}

func TestAtRefSpeedScalesByTheLoopsAround(t *testing.T) {
	for _, tc := range []struct {
		before, after time.Duration
		want          float64
	}{
		{refLoop, refLoop, 10},         // the reference speed
		{2 * refLoop, 2 * refLoop, 5},  // a machine at half speed
		{refLoop, 3 * refLoop, 5},      // slowing down during the op
		{refLoop / 2, refLoop / 2, 20}, // a faster machine
	} {
		if got := atRefSpeed(10*time.Millisecond, tc.before, tc.after); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("10 ms between loops of %v and %v: %v ms, want %v", tc.before, tc.after, got, tc.want)
		}
	}
	if d := newCalibration().time(); d <= 0 {
		t.Errorf("calibration loop took %v", d)
	}
}

func TestPercentileMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	if p := percentile([]float64{4}, 0.9); p != 4 {
		t.Errorf("one sample: %v", p)
	}
}
