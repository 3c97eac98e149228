package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// syntheticRuns makes ten traced explain-query records whose layer shares
// wobble by under 2%; scale multiplies causal.build_share.
func syntheticRuns(scale float64) []record {
	var recs []record
	for i := 0; i < 10; i++ {
		wobble := 1 + 0.002*float64(i%7)
		recs = append(recs, record{
			Workload: wExplain, Seed: int64(i), PassComplete: true,
			result: result{Correct: true, Attempted: 50, Metrics: map[string]value{
				"causal.build_share":   {0.6 * wobble * scale, "ratio"},
				"trace.read_share":     {0.15 * wobble, "ratio"},
				"causal.explain_share": {0.03 * wobble, "ratio"},
				"causal.events":        {19200, "count"},
			}},
		})
	}
	return recs
}

func writeRecords(t *testing.T, path string, recs []record) {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func verdicts(a, b []record) map[string]string {
	out := map[string]string{}
	for _, c := range compareSeries(groupRecords(a), groupRecords(b)) {
		out[c.metric] = c.verdict
	}
	return out
}

func TestCompareFlagsSlowLayer(t *testing.T) {
	got := verdicts(syntheticRuns(1), syntheticRuns(1.2))
	want := map[string]string{
		"causal.build_share":   verdictRegressed,
		"trace.read_share":     verdictUnchanged,
		"causal.explain_share": verdictUnchanged,
		"causal.events":        verdictMatch,
	}
	for m, v := range want {
		if got[m] != v {
			t.Errorf("%s: %s, want %s", m, got[m], v)
		}
	}
	if v := verdicts(syntheticRuns(1.2), syntheticRuns(1))["causal.build_share"]; v != verdictImproved {
		t.Errorf("20%% faster layer: %s, want %s", v, verdictImproved)
	}
}

func TestComparePassesIdenticalSets(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	writeRecords(t, a, syntheticRuns(1))
	writeRecords(t, b, syntheticRuns(1))
	var out bytes.Buffer
	if code := compareMain([]string{a, b}, &out); code != 0 {
		t.Fatalf("identical sets: exit %d\n%s", code, out.String())
	}
	if strings.Contains(out.String(), verdictRegressed) || strings.Contains(out.String(), verdictImproved) {
		t.Errorf("identical sets judged different:\n%s", out.String())
	}

	slow := syntheticRuns(1.2)
	slow[3].Metrics["causal.events"] = value{19201, "count"}
	writeRecords(t, b, slow)
	out.Reset()
	if code := compareMain([]string{a, b}, &out); code != 1 {
		t.Fatalf("slow layer and changed count: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictMismatch) {
		t.Errorf("changed exact count not flagged:\n%s", out.String())
	}
}

func TestCompareCountsPerSeed(t *testing.T) {
	a := []obs{{1, true, 10}, {2, true, 20}}
	for _, c := range []struct {
		b    []obs
		want string
	}{
		{[]obs{{1, true, 10}, {2, true, 20}}, verdictMatch},
		{[]obs{{2, true, 21}}, verdictMismatch},
		{[]obs{{3, true, 30}}, verdictUnresolved},
		{[]obs{{1, false, 11}}, verdictUnresolved},
	} {
		if got := sameCounts(a, c.b); got != c.want {
			t.Errorf("%v: %s, want %s", c.b, got, c.want)
		}
	}
}

func TestCompareUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	m, _ := lookupMetric("op_p50_ms")
	var noisy []obs
	for _, v := range []float64{100, 140, 80, 120, 90, 130, 70, 110} {
		noisy = append(noisy, obs{v: v})
	}
	if c := judge(m, m.bound, noisy, noisy); c.verdict != verdictUnresolved {
		t.Errorf("spread above bound: %s, want %s", c.verdict, verdictUnresolved)
	}
}

// A change whose every run beats every parent run, but whose median gains
// less than the parent's own quartile spread, claims no gain; winning every
// pair only keeps the verdict from being unresolved.
func TestCompareAllWinsBelowSpreadIsNoGain(t *testing.T) {
	m, _ := lookupMetric("op_p50_ms")
	var skewed, change []obs
	for _, v := range []float64{10.0, 10.1, 10.2, 10.3, 10.4, 13.0, 13.2, 13.4, 13.6, 13.8} {
		skewed = append(skewed, obs{v: v})
		change = append(change, obs{v: 9.9})
	}
	c := judge(m, m.bound, skewed, change)
	if c.wins != c.pairs {
		t.Fatalf("change wins %d of %d pairs, want all", c.wins, c.pairs)
	}
	if c.verdict != verdictUnchanged {
		t.Errorf("all wins, median gain %.2f within parent spread %.2f: %s, want %s",
			c.medA-c.medB, c.q3A-c.q1A, c.verdict, verdictUnchanged)
	}
}
