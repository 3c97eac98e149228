package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/oracle"
	"repro/internal/system"
	"repro/internal/trace"
)

// surveyN is the location count of the chaos survey grid.
const surveyN = 4

// chaosVerify is the survey path: each op builds one run of the n=4 survey
// grid, executes it under a stride-1 oracle with channel shadows, checks
// it, turns the verdict into an artifact and replays that through both
// engines.  One pass is the whole grid; pass p seeds the network and the
// random scheduler with seed+p, so later passes are new executions of the
// same cells.
type chaosVerify struct {
	seed  int64
	cells []surveyCell
}

// surveyCell is one run of the survey grid, minus its seeds.
type surveyCell struct {
	scenario chaos.Scenario
	topo     system.Topology
	target   chaos.Target
	plan     system.FaultPlan
	sched    string
}

func (w *chaosVerify) setup(seed int64) error {
	w.seed = seed
	for _, sc := range chaos.SurveyScenarios(surveyN, chaos.DefaultSteps(surveyN)) {
		topo, err := system.ParseTopology(surveyN, sc.Topo)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		for _, tg := range chaos.SurveyTargets() {
			for _, plan := range surveyPlans(tg, surveyN) {
				for _, s := range []string{chaos.SchedRoundRobin, chaos.SchedRandom} {
					w.cells = append(w.cells, surveyCell{scenario: sc, topo: topo, target: tg, plan: plan, sched: s})
				}
			}
		}
	}
	return nil
}

// surveyPlans are the survey's crash plans for a target: none, then one and
// two crashes of non-generator locations where the target tolerates them.
func surveyPlans(tg chaos.Target, n int) []system.FaultPlan {
	plans := []system.FaultPlan{system.NoFaults()}
	if maxT := tg.MaxT(n); maxT >= 1 && n >= 3 {
		plans = append(plans, system.CrashOf(1))
		if maxT >= 2 && n >= 4 {
			plans = append(plans, system.CrashOf(1, 2))
		}
	}
	return plans
}

func (w *chaosVerify) passLen() int { return len(w.cells) }

// runOf builds op i's run.
func (w *chaosVerify) runOf(i int) chaos.Run {
	cell := w.cells[i%len(w.cells)]
	seed := w.seed + int64(i/len(w.cells))
	sc := cell.scenario
	gates := chaos.NoGates()
	gates.PartitionMask, gates.PartitionAt, gates.HealAt = sc.PartitionMask, sc.PartitionAt, sc.HealAt
	r := chaos.Run{
		Target: cell.target,
		N:      surveyN,
		Plan:   cell.plan,
		Gates:  gates,
		Net: system.NetSpec{
			Topo: cell.topo, Seed: seed,
			Drop: sc.Drop, Dup: sc.Dup, Reorder: sc.Reorder,
		},
		Sched: cell.sched,
		Steps: chaos.DefaultSteps(surveyN),
	}
	if cell.sched == chaos.SchedRandom {
		r.Seed = seed
	}
	return r
}

// errClause is the trailing "(clause)" of a checker error, the survey's
// key for which property a run lost.
func errClause(err error) string {
	s := err.Error()
	if i := strings.LastIndexByte(s, '('); i >= 0 && strings.HasSuffix(s, ")") {
		return s[i:]
	}
	return s
}

func (w *chaosVerify) op(i int, c *opCtx) error {
	var r chaos.Run
	var v chaos.Verdict
	var err error
	var execStart, hookAt, checkAt, checkEnd time.Time
	c.span("chaos.execute", func() {
		execStart = time.Now()
		r = w.runOf(i)
		v, err = chaos.ExecuteInstrumented(r, func(b *chaos.Built) func() error {
			hookAt = time.Now()
			orc := oracle.Attach(b.Sys, oracle.Options{Stride: 1, Shadow: true})
			return func() error {
				checkAt = time.Now()
				defer func() { checkEnd = time.Now() }()
				return orc.Check()
			}
		})
		if err == nil {
			c.mark("chaos.build", execStart, hookAt)
			c.mark("sched.drive", hookAt, checkAt)
			c.mark("oracle.check", checkAt, checkEnd)
		}
	})
	if err != nil {
		return err
	}
	var a *trace.Artifact
	artD := c.span("trace.artifact", func() { a = v.Artifact() })
	var rerr error
	replayD := c.span("chaos.replay", func() { _, rerr = chaos.Replay(a) })
	c.done()
	failed := v.Failed()
	if failed && strings.HasPrefix(errClause(v.Err), "(oracle-") {
		return fmt.Errorf("%s: oracle divergence: %v", r.Target.ID(), v.Err)
	}
	if rerr != nil {
		return fmt.Errorf("%s: replay: %w", r.Target.ID(), rerr)
	}

	violation := 0.0
	if failed {
		violation = 1
	}
	c.count("chaos.spec_violation_ratio", violation)
	c.count("ioa.events_per_op", float64(v.Steps))
	c.count("chaos.gate_vetoes_per_op", float64(len(v.GateLog)))
	c.count("system.net_events_per_op", float64(len(v.NetLog)))
	c.share("chaos.build_share", hookAt.Sub(execStart))
	c.share("oracle.check_share", checkEnd.Sub(checkAt))
	c.share("trace.artifact_share", artD)
	c.share("chaos.replay_share", replayD)

	// The drive span holds the checker as well, and the oracle observes
	// every event of it: the probes re-time the checker alone and the same
	// run without the oracle, to take both apart.
	drive := checkAt.Sub(hookAt)
	var checker time.Duration
	c.probe("checker.check", func(pc *opCtx) error {
		fair := chaos.Fair(r.Sched) && r.Gates.EventuallyFair()
		start := time.Now()
		cerr := r.Target.Checker(r.N, r.Plan, fair)(v.Trace)
		checker = time.Since(start)
		if (cerr != nil) != failed {
			return fmt.Errorf("checker re-run verdict %v, run verdict %v", cerr, v.Err)
		}
		pc.share("checker.check_share", checker)
		pc.share("sched.drive_share", drive-checker)
		return nil
	})
	c.probe("chaos.execute_plain", func(pc *opCtx) error {
		var hook, check time.Time
		plain, err := chaos.ExecuteInstrumented(r, func(*chaos.Built) func() error {
			hook = time.Now()
			return func() error { check = time.Now(); return nil }
		})
		if err != nil {
			return err
		}
		if !trace.Equal(plain.Trace, v.Trace) {
			return fmt.Errorf("run without oracle traced %d events, with oracle %d", len(plain.Trace), len(v.Trace))
		}
		plainDrive := check.Sub(hook)
		pc.share("oracle.observe_share", drive-plainDrive)
		if sim := plainDrive - checker; sim > 0 {
			pc.sample("ioa.events_per_s", float64(plain.Steps)/sim.Seconds())
		}
		return nil
	})
	c.probe("chaos.replay_system", func(pc *opCtx) error {
		start := time.Now()
		err := chaos.ReplayThroughSystem(a)
		pc.share("chaos.replay_system_share", time.Since(start))
		return err
	})
	return nil
}
