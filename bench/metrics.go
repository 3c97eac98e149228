package main

import (
	"math"
	"sort"
)

// Workload names, as passed to -workload.
const (
	wChaos   = "chaos-verify"
	wExplain = "explain-query"
	wValN2   = "valence-n2"
	wValN3   = "valence-n3"
	wLive    = "live-tcp"
)

var (
	allWorkloads = []string{wChaos, wExplain, wValN2, wValN3, wLive}
	valenceBoth  = []string{wValN2, wValN3}
	// valenceFull are the valence workloads that explore unreduced too.
	valenceFull = []string{wValN2}
)

// metric describes one reported figure.  End-to-end metrics (bound > 0) are
// printed by untraced runs, per-layer metrics by traced runs.  Every run
// prints every metric of its kind; a per-layer metric whose layer the
// workload's ops never call reads 0.  Per-layer times are therefore given
// as shares of the op's time, so no time reads 0 on every run.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	bound float64
	// exact marks a deterministic count: the same seed and op count give
	// the same value on every run, so compare demands equality.
	exact bool
	// stat folds the per-op samples under key src into the reported value:
	// "p50", "p90" or "mean".
	stat string
	src  string
	// on lists the workloads whose ops feed the metric.
	on []string
}

// endToEnd are the metrics a user of the system sees, reported on every
// workload.  BENCHMARK.json repeats them with the same bounds.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, on: allWorkloads},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.24, on: allWorkloads},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.24, on: allWorkloads},
	{name: "rss_p50_mb", unit: "MB", better: "lower", bound: 0.10, on: allWorkloads},
}

// share is the median share of an op's time spent in one layer's calls.
func share(name string, on ...string) metric {
	return metric{name: name, unit: "ratio", better: "lower", stat: "p50", on: on}
}

func rate(name string, on ...string) metric {
	return metric{name: name, unit: "1/s", better: "higher", stat: "p50", on: on}
}

func count(name, better string, on ...string) metric {
	return metric{name: name, unit: "count", better: better, exact: true, stat: "mean", on: on}
}

// perLayer are the metrics of single layers, reported by traced runs.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		{name: "op_p90_ms", unit: "ms", better: "lower", stat: "p90", src: "op_ms", on: allWorkloads},
		// The op's time as the clock read it, and the calibration loop's,
		// which op times are scaled by (speed.go).
		{name: "op_p50_wall_ms", unit: "ms", better: "lower", stat: "p50", src: "op_wall_ms", on: allWorkloads},
		{name: "machine.calibration_ms", unit: "ms", better: "lower", stat: "p50", src: "calibration_ms", on: allWorkloads},
		{name: "trace_overhead", unit: "ratio", better: "lower", stat: "mean", on: allWorkloads},
		{name: "trace.coverage_min", unit: "ratio", better: "higher", stat: "mean", on: allWorkloads},

		share("chaos.build_share", wChaos),
		share("sched.drive_share", wChaos),
		share("oracle.observe_share", wChaos),
		share("oracle.check_share", wChaos),
		share("checker.check_share", wChaos, wLive),
		share("trace.artifact_share", wChaos),
		share("chaos.replay_share", wChaos),
		share("chaos.replay_system_share", wChaos, wExplain, wLive),
		rate("ioa.events_per_s", wChaos),
		count("ioa.events_per_op", "lower", wChaos),
		count("chaos.gate_vetoes_per_op", "lower", wChaos),
		count("system.net_events_per_op", "lower", wChaos),
		{name: "chaos.spec_violation_ratio", unit: "ratio", better: "lower", exact: true, stat: "mean", on: []string{wChaos}},

		share("trace.read_share", wExplain),
		share("causal.build_share", wExplain),
		share("causal.transitions_share", wExplain),
		share("causal.explain_share", wExplain),
		share("causal.qos_share", wExplain),
		count("causal.events", "lower", wExplain),
		count("causal.message_edges", "lower", wExplain),
		count("causal.verified_edges", "higher", wExplain),
		count("causal.cone_size", "lower", wExplain),
		count("causal.chain_len", "lower", wExplain),

		share("runtime.gc_share", valenceFull...),
		count("valence.pruned_steps", "higher", valenceBoth...),
		count("valence.reduce_rounds", "lower", valenceBoth...),
		count("valence.forced_full", "lower", valenceBoth...),
		{name: "valence.reduction_ratio", unit: "ratio", better: "higher", exact: true, stat: "mean", on: valenceFull},

		share("live.runtime_share", wLive),
		share("live.verdict_share", wLive),
		rate("live.events_per_s", wLive),
		// Detection latency in heartbeat intervals of the paced runs.
		{name: "live.detect_p50_beats", unit: "heartbeats", better: "lower", stat: "p50", src: "live.detect_beats", on: []string{wLive}},
		{name: "live.detect_p90_beats", unit: "heartbeats", better: "lower", stat: "p90", src: "live.detect_beats", on: []string{wLive}},
		{name: "live.saturated_steps", unit: "count", better: "lower", stat: "mean", on: []string{wLive}},
		{name: "live.mistakes_per_run", unit: "count", better: "lower", stat: "mean", on: []string{wLive}},
		{name: "live.signals_per_event", unit: "ratio", better: "lower", stat: "mean", on: []string{wLive}},
		{name: "live.nudges_per_event", unit: "ratio", better: "lower", stat: "mean", on: []string{wLive}},
	}
	// Each valence figure is reported once per mode, on the workloads that
	// explore in that mode.
	for _, mode := range []struct {
		sfx string
		on  []string
	}{{".full", valenceFull}, {".reduced", valenceBoth}} {
		sfx, on := mode.sfx, mode.on
		ms = append(ms,
			share("valence.op_share"+sfx, on...),
			share("valence.new_share"+sfx, on...),
			share("valence.explore_share"+sfx, on...),
			share("valence.findhooks_share"+sfx, on...),
			share("valence.verify_share"+sfx, on...),
			rate("valence.nodes_per_s"+sfx, on...),
			metric{name: "valence.allocs_per_node" + sfx, unit: "count", better: "lower", stat: "p50", on: on},
			metric{name: "valence.gc_cycles" + sfx, unit: "count", better: "lower", stat: "mean", on: on},
			count("valence.nodes"+sfx, "lower", on...),
			count("valence.edges"+sfx, "lower", on...),
			count("valence.hooks"+sfx, "higher", on...),
		)
	}
	return ms
}

// lookupMetric finds a metric of either kind by name.
func lookupMetric(name string) (metric, bool) {
	for _, ms := range [][]metric{endToEnd, perLayer} {
		for _, m := range ms {
			if m.name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

func (m metric) key() string {
	if m.src != "" {
		return m.src
	}
	return m.name
}

func (m metric) exercisedBy(workload string) bool {
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

// fold reduces samples to the metric's reported value.
func (m metric) fold(xs []float64) float64 {
	switch m.stat {
	case "mean":
		return mean(xs)
	case "p90":
		return percentile(xs, 0.90)
	default:
		return percentile(xs, 0.50)
	}
}

// worse returns how much worse b is than a, as a share of a: positive when b
// is worse in the metric's direction.
func (m metric) worse(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if m.better == "higher" {
		return -d
	}
	return d
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentile interpolates the p-quantile of xs by the "exclusive" rule of
// Python's statistics.quantiles (rank p·(n+1)), clamped to the observed
// range so small samples never extrapolate.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)+1)
	if h <= 1 {
		return s[0]
	}
	if h >= float64(len(s)) {
		return s[len(s)-1]
	}
	j := int(h)
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

// quartiles returns the first quartile, median and third quartile of xs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return percentile(xs, 0.25), percentile(xs, 0.50), percentile(xs, 0.75)
}
