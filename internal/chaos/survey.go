package chaos

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/system"
)

// Scenario names one degraded-network configuration of the survey grid: a
// topology, per-link loss rates, and an optional partition window.  The zero
// value is the reliable full mesh the paper assumes.
type Scenario struct {
	Name string
	// Topo is a system.ParseTopology description ("", "full", "ring",
	// "star:0", "grid:1x4", "cut:0", "links:0>1,...").
	Topo string
	// Drop, Dup, Reorder are per-link permille rates (system.NetSpec).
	Drop, Dup, Reorder int
	// PartitionMask, when non-zero, splits locations into mask-side and
	// complement from step PartitionAt; HealAt > PartitionAt heals the
	// partition, HealAt ≤ PartitionAt never does (the run is then checked
	// against safety clauses only — see GateSpec.EventuallyFair).
	PartitionMask       uint64
	PartitionAt, HealAt int
}

// net resolves the scenario's network spec for an n-location run; every
// run's link decisions are seeded with 1.
func (s Scenario) net(n int) (system.NetSpec, error) {
	topo, err := system.ParseTopology(n, s.Topo)
	if err != nil {
		return system.NetSpec{}, fmt.Errorf("chaos: scenario %s: %w", s.Name, err)
	}
	return system.NetSpec{
		Topo:    topo,
		Seed:    1,
		Drop:    s.Drop,
		Dup:     s.Dup,
		Reorder: s.Reorder,
	}, nil
}

// gates merges the scenario's partition window into a gate spec.
func (s Scenario) gates() GateSpec {
	g := NoGates()
	g.PartitionMask = s.PartitionMask
	g.PartitionAt = s.PartitionAt
	g.HealAt = s.HealAt
	return g
}

// SurveyScenarios is the full scenario grid for an n-location survey with
// the given step bound: the reliable baseline, lossy meshes (drop, dup,
// reorder, and a mix), sparse topologies (ring, line, star, an isolated
// min-live location), a partition that heals, one that never does, and a
// lossy partitioned mesh.
func SurveyScenarios(n, steps int) []Scenario {
	half := uint64(1)<<(uint(n)/2) - 1 // lower half of the locations
	return []Scenario{
		{Name: "baseline"},
		{Name: "drop-light", Drop: 60},
		{Name: "drop-heavy", Drop: 500},
		{Name: "dup", Dup: 150},
		{Name: "reorder", Reorder: 250},
		{Name: "drop+dup", Drop: 120, Dup: 120},
		{Name: "ring", Topo: "ring"},
		{Name: "line", Topo: fmt.Sprintf("grid:1x%d", n)},
		{Name: "star", Topo: fmt.Sprintf("star:%d", n-1)},
		{Name: "cut-minlive", Topo: "cut:0"},
		{Name: "heal", PartitionMask: half, PartitionAt: steps / 8, HealAt: steps / 4},
		{Name: "split", PartitionMask: 1, PartitionAt: steps / 8},
		{Name: "drop+heal", Drop: 120, PartitionMask: half, PartitionAt: steps / 8, HealAt: steps / 4},
	}
}

// SurveyShortScenarios is the CI-sized grid: one representative per
// adversary class.
func SurveyShortScenarios(n, steps int) []Scenario {
	all := SurveyScenarios(n, steps)
	keep := map[string]bool{"baseline": true, "drop-heavy": true, "ring": true, "heal": true, "split": true}
	out := all[:0:0]
	for _, s := range all {
		if keep[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// SurveyTargets is the full target panel: gossip boosting for the
// perpetual (Q→P) and eventual (◇Q→◇P) classes, chained reductions into Ω
// and Σ, the relay variant, uniform reliable broadcast, and consensus via
// the participant detector.  Canonical detector automata exchange no
// messages, so the panel measures the message-passing reductions the
// hierarchy actually runs on.
func SurveyTargets() []Target {
	return []Target{
		GossipTarget{Source: "FD-Q", Out: "FD-P"},
		GossipTarget{Source: "FD-◇Q", Out: "FD-◇P"},
		GossipTarget{Source: "FD-◇Q", Out: "FD-◇P", Reduce: "FD-Ω"},
		GossipTarget{Source: "FD-Q", Out: "FD-P", Reduce: "FD-Σ"},
		GossipTarget{Source: "FD-Q", Out: "FD-P", Forward: true},
		lookup("urb:majority"),
		lookup("participant:consensus"),
	}
}

// SurveyShortTargets is the CI-sized panel.
func SurveyShortTargets() []Target {
	return []Target{
		GossipTarget{Source: "FD-Q", Out: "FD-P"},
		GossipTarget{Source: "FD-◇Q", Out: "FD-◇P", Reduce: "FD-Ω"},
		GossipTarget{Source: "FD-Q", Out: "FD-P", Reduce: "FD-Σ"},
		GossipTarget{Source: "FD-Q", Out: "FD-P", Forward: true},
	}
}

// SurveyConfig parameterizes a survey sweep.
type SurveyConfig struct {
	N         int        // locations, 1..system.MaxLocs
	Steps     int        // step bound per run (0 = DefaultSteps(N))
	Seeds     int        // random-scheduler seeds per cell, at least 1
	Targets   []Target   // nil = SurveyTargets()
	Scenarios []Scenario // nil = SurveyScenarios(N, Steps)
}

func (c SurveyConfig) withDefaults() SurveyConfig {
	if c.Steps <= 0 {
		c.Steps = DefaultSteps(c.N)
	}
	if c.Targets == nil {
		c.Targets = SurveyTargets()
	}
	if c.Scenarios == nil {
		c.Scenarios = SurveyScenarios(c.N, c.Steps)
	}
	return c
}

// Cell is one (scenario, target) entry of the survival table, aggregated
// over the cell's fault plans and schedulers.
type Cell struct {
	Scenario string
	Target   string
	Runs     int
	Failures int
	// Clauses are the distinct specification clauses lost in this cell,
	// sorted — the property-survival signal.
	Clauses []string
	// Infra are infrastructure failures: oracle divergences, replay
	// mismatches, build errors.  A clean survey has none anywhere.
	Infra []string
}

// Survives reports whether every run of the cell satisfied its
// specification.
func (c Cell) Survives() bool { return c.Failures == 0 && len(c.Infra) == 0 }

// SurveyReport is the outcome of a survey sweep.
type SurveyReport struct {
	N, Steps int
	// Cells is scenario-major, matching the config's scenario and target
	// order.
	Cells []Cell
}

// Survey sweeps the scenario × target grid.  Every run is executed with a
// full differential oracle (stride 1, channel shadows — the shadows
// independently re-derive each link's drop/dup/reorder decisions), and
// every verdict's artifact is replayed through both engines; any
// disagreement lands in the cell's Infra list.  The runs execute in
// parallel, and the cells are filled in run order once every run has
// finished.  The returned error reports an N outside 1..system.MaxLocs, a
// Seeds below 1, or a scenario whose network cannot be built; measured
// property losses are data, not errors.
func Survey(cfg SurveyConfig) (*SurveyReport, error) {
	if err := checkGrid(cfg.N, cfg.Seeds); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rep := &SurveyReport{N: cfg.N, Steps: cfg.Steps}

	// runs lists the grid in table order — scenario, target, fault plan,
	// then round-robin and random seeds 1..Seeds — and each run its cell
	// and, once executed, its outcome.
	type surveyRun struct {
		Run
		cell  int    // index into rep.Cells
		lost  error  // the violated specification; nil when it held
		infra string // an infrastructure failure; "" when none
	}
	var runs []surveyRun
	for _, sc := range cfg.Scenarios {
		net, err := sc.net(cfg.N)
		if err != nil {
			return nil, err
		}
		for _, tg := range cfg.Targets {
			rep.Cells = append(rep.Cells, Cell{Scenario: sc.Name, Target: tg.ID()})
			for _, plan := range surveyPlans(tg, cfg.N) {
				r := surveyRun{cell: len(rep.Cells) - 1, Run: Run{
					Target: tg, N: cfg.N, Plan: plan, Gates: sc.gates(),
					Net: net, Sched: SchedRoundRobin, Steps: cfg.Steps,
				}}
				runs = append(runs, r)
				for s := 1; s <= cfg.Seeds; s++ {
					r.Sched, r.Seed = SchedRandom, int64(s)
					runs = append(runs, r)
				}
			}
		}
	}

	hook := OracleHook(nil)
	parallel(len(runs), func(_, i int) {
		r := &runs[i]
		v, err := ExecuteInstrumented(r.Run, hook)
		if err != nil {
			r.infra = err.Error()
			return
		}
		if v.Failed() {
			if IsDivergence(v.Err) {
				r.infra = v.Err.Error()
				return
			}
			r.lost = v.Err
		}
		// Close the loop: the artifact must replay bit-for-bit through
		// the scheduler re-execution and the cross-engine pass — for
		// lossy runs this re-derives every link decision from the spec.
		if _, rerr := Replay(v.Artifact()); rerr != nil {
			r.infra = "replay: " + rerr.Error()
		}
	})

	for _, r := range runs {
		c := &rep.Cells[r.cell]
		c.Runs++
		if r.infra != "" {
			c.Infra = append(c.Infra, r.infra)
		}
		if r.lost != nil {
			c.Failures++
			if cl := errClause(r.lost); !slices.Contains(c.Clauses, cl) {
				c.Clauses = append(c.Clauses, cl)
			}
		}
	}
	for i := range rep.Cells {
		sort.Strings(rep.Cells[i].Clauses)
	}
	return rep, nil
}

// surveyPlans returns the cell's fault plans: the crash-free run plus
// crash sets that leave non-generator locations alive, so completeness is
// message-dependent (the min-live source keeps location 0, and at least one
// other live location must learn the crash set over the channels).
func surveyPlans(tg Target, n int) []system.FaultPlan {
	plans := []system.FaultPlan{system.NoFaults()}
	maxT := tg.MaxT(n)
	if maxT >= 1 && n >= 3 {
		plans = append(plans, system.CrashOf(1))
	}
	if maxT >= 2 && n >= 4 {
		plans = append(plans, system.CrashOf(1, 2))
	}
	return plans
}

// Clean reports whether the survey saw no infrastructure failures: every
// oracle-instrumented run agreed with its shadows and every artifact
// replayed bit-for-bit.
func (r *SurveyReport) Clean() bool {
	for _, c := range r.Cells {
		if len(c.Infra) > 0 {
			return false
		}
	}
	return true
}

// cell finds a cell by scenario and target ID ("" matches any target).
func (r *SurveyReport) cell(scenario, target string) *Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Scenario == scenario && (target == "" || c.Target == target) {
			return c
		}
	}
	return nil
}

// Control validates the survey's positive and negative controls: the
// reliable baseline must survive everywhere (the grid is not generating
// false losses), and heavy message loss must cost plain gossip boosting its
// strong completeness (the grid actually detects the known-expected loss —
// a dropped final-state broadcast is never resent, so some live location
// keeps an incomplete suspicion set).
func (r *SurveyReport) Control() error {
	sawBaseline := false
	for _, c := range r.Cells {
		if c.Scenario != "baseline" {
			continue
		}
		sawBaseline = true
		if !c.Survives() {
			return fmt.Errorf("chaos: negative control failed: baseline × %s lost %v (infra %v)",
				c.Target, c.Clauses, c.Infra)
		}
	}
	if !sawBaseline {
		return fmt.Errorf("chaos: no baseline scenario in the grid")
	}
	ctl := r.cell("drop-heavy", "gossip:FD-Q>FD-P")
	if ctl == nil {
		return nil // reduced grid without the control cell
	}
	for _, cl := range ctl.Clauses {
		if strings.Contains(cl, "completeness") {
			return nil
		}
	}
	return fmt.Errorf("chaos: positive control failed: drop-heavy × gossip:FD-Q>FD-P should lose completeness, got %v",
		ctl.Clauses)
}

// Table renders the property-survival table: one row per (scenario,
// target) cell with the lost clauses, grouped by scenario.
func (r *SurveyReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "property survival, n=%d steps=%d (%d cells)\n", r.N, r.Steps, len(r.Cells))
	w1, w2 := utf8.RuneCountInString("scenario"), utf8.RuneCountInString("target")
	for _, c := range r.Cells {
		if n := utf8.RuneCountInString(c.Scenario); n > w1 {
			w1 = n
		}
		if n := utf8.RuneCountInString(c.Target); n > w2 {
			w2 = n
		}
	}
	pad := func(s string, w int) string {
		return s + strings.Repeat(" ", w-utf8.RuneCountInString(s))
	}
	fmt.Fprintf(&b, "%s  %s  runs  result\n", pad("scenario", w1), pad("target", w2))
	for _, c := range r.Cells {
		result := "ok"
		switch {
		case len(c.Infra) > 0:
			result = fmt.Sprintf("INFRA %s", c.Infra[0])
		case c.Failures > 0:
			result = fmt.Sprintf("LOST %s [%d/%d]", strings.Join(c.Clauses, " "), c.Failures, c.Runs)
		}
		fmt.Fprintf(&b, "%s  %s  %4d  %s\n", pad(c.Scenario, w1), pad(c.Target, w2), c.Runs, result)
	}
	return b.String()
}
