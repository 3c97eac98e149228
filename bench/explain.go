package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/afd"
	"repro/internal/causal"
	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/trace"
)

const (
	explainN       = 16
	explainCrashed = ioa.Loc(explainN - 1)
	// explainSeeds is the number of artifacts per network; explainTries
	// bounds the seeds scanned for them.
	explainSeeds = 4
	explainTries = 64
)

// gossipTarget is the gossiping mesh boosting ◇Q to ◇P, the stack both
// explain-query and live-tcp run: every observer's suspicion of a crash
// reaches it over messages, so explanations and detection cross the
// network.
const gossipTarget = "gossip:" + afd.FamilyEvQ + ">" + afd.FamilyEvP

// explainQuery is the explain path: each op reads a serialized artifact back,
// rebuilds its verified happens-before DAG, extracts the suspicion
// transitions, explains one crash-rooted suspicion and computes the
// detector QoS.  All artifacts have one size, n=16, because causal.Build
// grows faster than linearly in n and a mix of sizes would make the op
// times bimodal.
type explainQuery struct {
	arts  [][]byte
	picks []explainPick
}

// explainPick is the suspicion an op explains: the transition at event,
// where observer permanently starts suspecting the crashed location.
type explainPick struct {
	event    int
	observer ioa.Loc
}

// setup records explainSeeds artifacts on the reliable mesh and as many
// with 150‰ message loss, from consecutive seeds starting at seed.  A seed
// whose run has no crash-rooted permanent suspicion is skipped.
func (w *explainQuery) setup(seed int64) error {
	target, err := chaos.ParseTarget(gossipTarget)
	if err != nil {
		return err
	}
	full, err := system.ParseTopology(explainN, "full")
	if err != nil {
		return err
	}
	for _, drop := range []int{0, 150} {
		found := 0
		for s := seed; found < explainSeeds; s++ {
			if s >= seed+explainTries {
				return fmt.Errorf("no crash-rooted suspicion in %d runs at drop %d‰", explainTries, drop)
			}
			r := chaos.Run{
				Target: target,
				N:      explainN,
				Plan:   system.CrashOf(explainCrashed),
				Sched:  chaos.SchedRandom,
				Seed:   s,
			}
			if drop > 0 {
				r.Net = system.NetSpec{Topo: full, Seed: s, Drop: drop}
			}
			v, err := chaos.Execute(r)
			if err != nil {
				return err
			}
			a := v.Artifact()
			pick, ok, err := pickSuspicion(a)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			var buf bytes.Buffer
			if err := trace.WriteArtifact(&buf, a); err != nil {
				return err
			}
			w.arts = append(w.arts, buf.Bytes())
			w.picks = append(w.picks, pick)
			found++
		}
	}
	return nil
}

// pickSuspicion finds, in observer order, the first permanent ◇P suspicion
// of the crashed location whose explanation is rooted in the crash.
func pickSuspicion(a *trace.Artifact) (explainPick, bool, error) {
	d, err := causal.Build(a)
	if err != nil {
		return explainPick{}, false, err
	}
	if !d.Verification.Ok() {
		return explainPick{}, false, fmt.Errorf("causal verification failed: %v", d.Verification.Diffs)
	}
	trs := d.Transitions()
	last := map[ioa.Loc]int{} // observer -> index in trs of its permanent suspicion
	for k, tr := range trs {
		if tr.Family != afd.FamilyEvP {
			continue
		}
		if containsLoc(tr.Added, explainCrashed) {
			last[tr.Observer] = k
		} else if containsLoc(tr.Removed, explainCrashed) {
			delete(last, tr.Observer)
		}
	}
	for obs := ioa.Loc(0); obs < explainN; obs++ {
		k, ok := last[obs]
		if !ok {
			continue
		}
		ex, err := d.Explain(trs[k], explainCrashed)
		if err != nil {
			return explainPick{}, false, err
		}
		if ex.OriginIsCrash {
			return explainPick{event: trs[k].Event, observer: obs}, true, nil
		}
	}
	return explainPick{}, false, nil
}

func containsLoc(ls []ioa.Loc, l ioa.Loc) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

func (w *explainQuery) passLen() int { return len(w.arts) }

func (w *explainQuery) op(i int, c *opCtx) error {
	k := i % len(w.arts)
	pick := w.picks[k]
	var a *trace.Artifact
	var err error
	c.share("trace.read_share", c.span("trace.read", func() {
		a, err = trace.ReadArtifact(bytes.NewReader(w.arts[k]))
	}))
	if err != nil {
		return fmt.Errorf("artifact %d: %w", k, err)
	}
	var d *causal.DAG
	c.share("causal.build_share", c.span("causal.build", func() { d, err = causal.Build(a) }))
	if err != nil {
		return fmt.Errorf("artifact %d: %w", k, err)
	}
	if !d.Verification.Ok() {
		return fmt.Errorf("artifact %d: causal verification failed: %v", k, d.Verification.Diffs)
	}
	var trs []causal.Transition
	c.share("causal.transitions_share", c.span("causal.transitions", func() { trs = d.Transitions() }))
	var ex *causal.Explanation
	c.share("causal.explain_share", c.span("causal.explain", func() {
		err = fmt.Errorf("no transition at event %d", pick.event)
		for _, tr := range trs {
			if tr.Event == pick.event && tr.Observer == pick.observer {
				ex, err = d.Explain(tr, explainCrashed)
				break
			}
		}
	}))
	if err != nil {
		return fmt.Errorf("artifact %d: %w", k, err)
	}
	if !ex.OriginIsCrash {
		return fmt.Errorf("artifact %d: suspicion at event %d is not rooted in the crash", k, pick.event)
	}
	var stats []causal.Stats
	c.share("causal.qos_share", c.span("causal.qos", func() { stats = causal.Compute(a.Trace, a.Stamps) }))
	c.done()
	if !detected(stats, pick.observer) {
		return fmt.Errorf("artifact %d: QoS has no detection of %v by %v", k, explainCrashed, pick.observer)
	}

	c.count("causal.events", float64(len(d.Events)))
	c.count("causal.message_edges", float64(d.Verification.MessageEdges))
	c.count("causal.verified_edges", float64(d.Verification.VerifiedEdges))
	c.count("causal.cone_size", float64(ex.ConeSize))
	c.count("causal.chain_len", float64(len(ex.Chain)))
	// causal.Build re-executes the trace; the probe times that replay alone.
	c.probe("chaos.replay_system", func(pc *opCtx) error {
		start := time.Now()
		err := chaos.ReplayThroughSystem(a)
		pc.share("chaos.replay_system_share", time.Since(start))
		return err
	})
	return nil
}

// detected reports whether the ◇P QoS records observer's detection of the
// crashed location.
func detected(stats []causal.Stats, observer ioa.Loc) bool {
	for _, s := range stats {
		if s.Family != afd.FamilyEvP {
			continue
		}
		for _, d := range s.Detections {
			if d.Observer == observer && d.Crashed == explainCrashed {
				return true
			}
		}
	}
	return false
}
