package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// readRecords loads the JSON-line run records in path.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// obs is one run's value of a metric.
type obs struct {
	seed     int64
	complete bool // the run finished a pass over its inputs
	v        float64
}

// series groups the values of each (workload, metric) across runs.
type series map[string]map[string][]obs

func groupRecords(recs []record) series {
	s := series{}
	for _, r := range recs {
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]obs{}
		}
		for name, v := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], obs{r.Seed, r.PassComplete, v.Value})
		}
	}
	return s
}

func values(os []obs) []float64 {
	xs := make([]float64, len(os))
	for i, o := range os {
		xs[i] = o.v
	}
	return xs
}

// sameCounts judges an exact count: every run of a seed that both sides
// ran to a full pass must read the same.  Counts depend on the seed, so
// runs of different seeds are not compared.
func sameCounts(a, b []obs) string {
	ref := map[int64]float64{}
	fromA := map[int64]bool{}
	verdict := verdictUnresolved
	for side, os := range [][]obs{a, b} {
		for _, o := range os {
			if !o.complete {
				continue
			}
			v, seen := ref[o.seed]
			switch {
			case !seen:
				ref[o.seed] = o.v
				fromA[o.seed] = side == 0
			case v != o.v:
				return verdictMismatch
			case side == 1 && fromA[o.seed]:
				verdict = verdictMatch
			}
		}
	}
	return verdict
}

// Verdicts of one (metric, workload) comparison.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictMatch      = "match"
	verdictMismatch   = "MISMATCH"
)

// comparison is the judgment of one (workload, metric) pair.
type comparison struct {
	workload, metric string
	medA, q1A, q3A   float64
	medB, q1B, q3B   float64
	wins, pairs      int // pairs in which B reads better than A
	verdict          string
}

// judge applies the rule for claiming a change: B improved when it wins at
// least nine tenths of all (A, B) pairs, ties counting for neither, and its
// median is better than A's by more than A's own quartile spread.  It
// regressed when its median is worse than A's by more than the bound.
// Where A's spread exceeds the bound the pair is unresolved, unless every B
// run reads better than every A run; that alone claims no gain.  Exact
// metrics must repeat (sameCounts).
func judge(m metric, bound float64, ao, bo []obs) comparison {
	a, b := values(ao), values(bo)
	cmp := comparison{metric: m.name}
	cmp.q1A, cmp.medA, cmp.q3A = quartiles(a)
	cmp.q1B, cmp.medB, cmp.q3B = quartiles(b)
	if m.exact {
		cmp.verdict = sameCounts(ao, bo)
		return cmp
	}
	for _, x := range a {
		for _, y := range b {
			cmp.pairs++
			if m.worse(x, y) < 0 {
				cmp.wins++
			}
		}
	}
	spreadA := cmp.q3A - cmp.q1A
	var relSpread float64
	if cmp.medA != 0 {
		relSpread = spreadA / math.Abs(cmp.medA)
	}
	allWins := cmp.pairs > 0 && cmp.wins == cmp.pairs
	switch {
	case 10*cmp.wins >= 9*cmp.pairs && m.worse(cmp.medA, cmp.medB) < 0 && math.Abs(cmp.medB-cmp.medA) > spreadA:
		cmp.verdict = verdictImproved
	case relSpread > bound && !allWins:
		cmp.verdict = verdictUnresolved
	case m.worse(cmp.medA, cmp.medB) > bound:
		cmp.verdict = verdictRegressed
	default:
		cmp.verdict = verdictUnchanged
	}
	return cmp
}

// layerBound is the regression bound compare applies to per-layer metrics,
// which have no bound of their own, as a share of the parent's median.
const layerBound = 0.10

// compareSeries judges every (workload, metric) present on both sides,
// leaving out metrics of layers the workload never calls.
func compareSeries(a, b series) []comparison {
	var out []comparison
	for _, wl := range allWorkloads {
		names := make([]string, 0, len(a[wl]))
		for name := range a[wl] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ys, ok := b[wl][name]
			m, known := lookupMetric(name)
			if !ok || !known || !m.exercisedBy(wl) {
				continue
			}
			bound := m.bound
			if bound == 0 {
				bound = layerBound
			}
			c := judge(m, bound, a[wl][name], ys)
			c.workload = wl
			out = append(out, c)
		}
	}
	return out
}

// compareMain implements "afdbench compare A.jsonl B.jsonl": A is the
// parent, B the change.  It exits 1 when any metric regressed or an exact
// count differs.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: afdbench compare A.jsonl B.jsonl")
		return 2
	}
	var sides [2]series
	for k := range sides {
		recs, err := readRecords(args[k])
		if err != nil {
			fmt.Fprintln(os.Stderr, "afdbench compare:", err)
			return 2
		}
		sides[k] = groupRecords(recs)
	}
	bad := 0
	fmt.Fprintf(w, "%-14s %-30s %12s %25s %12s %25s %9s  %s\n",
		"workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "B wins", "verdict")
	for _, c := range compareSeries(sides[0], sides[1]) {
		fmt.Fprintf(w, "%-14s %-30s %12.5g %25s %12.5g %25s %9s  %s\n",
			c.workload, c.metric,
			c.medA, fmt.Sprintf("[%.5g, %.5g]", c.q1A, c.q3A),
			c.medB, fmt.Sprintf("[%.5g, %.5g]", c.q1B, c.q3B),
			fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
		if c.verdict == verdictRegressed || c.verdict == verdictMismatch {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regressed or mismatched\n", bad)
		return 1
	}
	return 0
}

// calibrate runs the workload in k processes with seeds seed .. seed+k-1
// and prints, per metric, the median, the quartile spread as a share of the
// median, and the bound that spread supports: three spreads, within
// [0.05, 0.25].
func calibrate(w io.Writer, cfg config, k int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	var recs []record
	for i := 0; i < k; i++ {
		args := []string{
			"-workload", cfg.workload,
			"-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
			"-seconds", strconv.Itoa(cfg.seconds),
			"-trace", trace,
		}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var r record
		if err := json.Unmarshal(lines[len(lines)-1], &r.result); err != nil {
			return fmt.Errorf("run %d: result line: %w", i, err)
		}
		if !r.Correct {
			return fmt.Errorf("run %d (seed %d): incorrect result, %d of %d ops failed",
				i, cfg.seed+int64(i), r.Failed, r.Attempted)
		}
		recs = append(recs, r)
	}
	names := make([]string, 0, len(recs[0].Metrics))
	for n := range recs[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: %d runs, seeds %d..%d\n", cfg.workload, k, cfg.seed, cfg.seed+int64(k-1))
	fmt.Fprintf(w, "%-30s %14s %9s %9s %9s\n", "metric", "median", "spread", "bound", "supports")
	for _, n := range names {
		var xs []float64
		for _, r := range recs {
			xs = append(xs, r.Metrics[n].Value)
		}
		q1, med, q3 := quartiles(xs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		m, _ := lookupMetric(n)
		fmt.Fprintf(w, "%-30s %14.6g %9.4f %9.2f %9.2f\n", n, med, spread, m.bound,
			math.Min(0.25, math.Max(0.05, math.Ceil(300*spread)/100)))
	}
	return nil
}
