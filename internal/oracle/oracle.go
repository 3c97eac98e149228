// Package oracle is the differential-checking layer over the repository's
// fast paths.  The last three PRs each added an optimized engine next to a
// slower reference — the action-routing index and incremental ready-set next
// to full scans, ring-buffer channels next to naive queues, the parallel
// valence explorer next to the serial BFS — exactly the setup where silent
// divergence bugs hide.  The oracle re-derives each fast path's answer from
// first principles while a system runs and fails loudly at the first
// observable divergence, naming the event (or NodeID) where the engines
// split instead of the downstream symptom.
//
// Three checkers:
//
//   - Oracle (Attach): observes a live ioa.System after every Apply and,
//     every Options.Stride events, re-derives the enabled-set by polling
//     every task's Enabled directly (diffed against the ready-set bitset and
//     its cached actions) and the delivery-set by scanning every automaton's
//     Accepts (diffed against the routing index's candidates).
//   - channel shadow (Options.Shadow): mirrors every system.Channel and
//     system.TrackedChannel with a naive slice queue, updated and compared
//     on every send and delivery — so the next ring-buffer retention or
//     compaction bug is caught at the step it happens.  It is the one
//     independent channel mirror: it pairs each delivery with its send
//     (PairedSend) and logs the lossy-link decisions it re-derives
//     (LinkDecisions), which the causal engine reads.
//   - DiffExplorers: runs the serial reference valence explorer and the
//     engine on one config and diffs stats, valence tables, encodings, edges, and hook
//     reports node-by-node, so a mismatch names the first divergent NodeID
//     rather than an aggregate hash.
//
// Every divergence error ends in a parenthesized clause — "(oracle-ready-set)",
// "(oracle-channel-shadow)", ... — so the chaos shrinker's clause matching
// (chaos.errClause) reduces an oracle failure without swapping it for an
// unrelated one.
//
// Checks are read-only: the oracle calls Enabled and Accepts (pure per the
// Automaton contract) and never mutates the observed system.  A system
// without an oracle pays nothing; an attached oracle costs one observer call
// per Apply plus the strided sweeps.
package oracle

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// DefaultStride is the minimum default event interval between full
// enabled-set and delivery-set sweeps.  A sweep costs O(tasks + automata)
// against an O(1) fast-path step, so the default stride scales with the
// composition — max(DefaultStride, tasks/4), fixed at Attach — keeping the
// per-event overhead a small constant factor at any n (the E1 benchmark
// bound is < 3× with the shadow on; a fixed stride fails that on the n=32
// mesh, whose ~n² channel tasks make each sweep ~1000 polls).  Differential
// hunts that want the divergence pinned to its exact event set Stride to 1.
const DefaultStride = 16

// Options configures an attached Oracle.
type Options struct {
	// Stride runs the enabled-set and delivery-set sweeps every Stride-th
	// event (1 = every event; 0 = the scaled default, see DefaultStride).
	// The channel shadow is per-event regardless: its cost is O(affected
	// queue), not O(system).
	Stride int
	// Shadow mirrors every system.Channel/TrackedChannel with a naive slice
	// queue, compared on each send and each delivery.
	Shadow bool
	// MaxErrs bounds recorded divergences (0 = 8).  Checking continues past
	// the bound; recording stops.
	MaxErrs int
	// Telemetry, when non-nil, counts sweeps (COracleSweeps), samples their
	// latency (HOracleSweepNs), and records one oracle-category trace span
	// per sweep — the window the ISSUE's "oracle slows a grid" diagnosis
	// needs.  Checking behavior is unchanged.
	Telemetry telemetry.Sink
}

// resolveStride fixes the sweep interval for a system with the given task
// count: the explicit Stride, or the scaled default.
func (o Options) resolveStride(tasks int) int {
	if o.Stride > 0 {
		return o.Stride
	}
	if s := tasks / 4; s > DefaultStride {
		return s
	}
	return DefaultStride
}

func (o Options) maxErrs() int {
	if o.MaxErrs <= 0 {
		return 8
	}
	return o.MaxErrs
}

// Oracle cross-checks one live ioa.System.  Attach adds it to the system's
// post-Apply observers; it must not outlive the system.
type Oracle struct {
	sys     *ioa.System
	opts    Options
	stride  int // resolved at Attach (see Options.resolveStride)
	shadows *shadowSet
	events  int
	sweeps  int
	errs    []error

	// Sweep scratch, reused across sweeps so the strided re-derivations
	// don't allocate per event (the PR 4 <3x overhead budget is mostly
	// sweep CPU; keeping the sweeps off the allocator keeps GC out of it).
	candBuf []int // caller-provided buffer for DeliveryCandidates
	refBuf  []int // first-principles delivery set
	fastBuf []int // Accepts-filtered routing candidates
}

// Attach adds an oracle to sys's post-Apply observers and returns it.  Call
// Check after the run for a final sweep regardless of stride phase, and Err
// for the verdict.
func Attach(sys *ioa.System, opts Options) *Oracle {
	o := &Oracle{sys: sys, opts: opts, stride: opts.resolveStride(len(sys.Tasks()))}
	if opts.Shadow {
		o.shadows = newShadowSet(sys)
	}
	sys.AddObserver(o.observe)
	return o
}

// Events returns the number of events observed.
func (o *Oracle) Events() int { return o.events }

// Sweeps returns the number of full enabled-set/delivery-set sweeps run.
func (o *Oracle) Sweeps() int { return o.sweeps }

// Err returns the first recorded divergence, or nil.
func (o *Oracle) Err() error {
	if len(o.errs) == 0 {
		return nil
	}
	return o.errs[0]
}

// Errs returns every recorded divergence, in observation order.
func (o *Oracle) Errs() []error { return o.errs }

// PairedSend returns the index of the send event whose message the event
// just observed delivered, in the channel's own FIFO discipline with its
// lossy decisions, or -1 when that event delivered no message whose send
// the channel shadow observed (requires Options.Shadow).  The index counts
// observed events, so it is the trace index when the oracle was attached
// to a system in its start state.  Only observers added after Attach see
// the current event's pairing: they run after the oracle's.
func (o *Oracle) PairedSend() int {
	if o.shadows == nil {
		return -1
	}
	return o.shadows.paired
}

// LinkDecisions returns the non-deliver link decisions the channel shadow
// drew independently of the channels, in the artifact's NetLog form and
// order and bounded by system.MaxNetLog like the channels' own log (none
// without Options.Shadow or a lossy network).
func (o *Oracle) LinkDecisions() []trace.LinkEvent {
	if o.shadows == nil {
		return nil
	}
	out := make([]trace.LinkEvent, len(o.shadows.decisions))
	for i, d := range o.shadows.decisions {
		out[i] = trace.LinkEvent{Link: fmt.Sprintf("%v>%v", d.from, d.to), Seq: d.seq, Outcome: d.out.String()}
	}
	return out
}

// Check runs a full sweep immediately — the end-of-run check that fires
// regardless of where the event count sits in the stride — and returns Err.
func (o *Oracle) Check() error {
	t0 := o.sweepStart()
	o.sweeps++
	o.checkReadySet()
	if o.shadows != nil {
		o.shadows.compareAll(o)
	}
	o.sweepDone(t0, "final-sweep")
	return o.Err()
}

// sweepStart stamps the start of a sweep on the telemetry clock (0 when no
// sink is attached).
func (o *Oracle) sweepStart() int64 {
	if o.opts.Telemetry == nil {
		return 0
	}
	return o.opts.Telemetry.Now()
}

// sweepDone records a completed sweep: the counter, the latency sample, and
// an oracle-category trace span carrying the event count.
func (o *Oracle) sweepDone(t0 int64, name string) {
	tel := o.opts.Telemetry
	if tel == nil {
		return
	}
	tel.Count(telemetry.COracleSweeps, 1)
	tel.Observe(telemetry.HOracleSweepNs, tel.Now()-t0)
	tel.Span(telemetry.CatOracle, name, t0, 0, int64(o.events))
}

func (o *Oracle) record(err error) {
	if len(o.errs) < o.opts.maxErrs() {
		o.errs = append(o.errs, err)
	}
}

// observe is the installed ioa.Observer: it runs after each Apply completed
// its Fire, deliveries, trace append, and ready-set repolls.
func (o *Oracle) observe(owner int, act ioa.Action) {
	o.events++
	if o.shadows != nil {
		o.shadows.step(o, owner, act)
	}
	if o.events%o.stride == 0 {
		t0 := o.sweepStart()
		o.sweeps++
		o.checkReadySet()
		o.checkDeliverySet(owner, act)
		o.sweepDone(t0, "sweep")
	}
}

// checkReadySet re-derives the enabled-set from first principles — polling
// every task's Enabled, as the pre-fast-path schedulers did every step — and
// diffs it against the incremental bitset and its cached actions.
func (o *Oracle) checkReadySet() {
	tasks := o.sys.Tasks()
	for idx := range tasks {
		tr := tasks[idx]
		refAct, refOK := o.sys.Enabled(tr)
		fastOK := o.sys.TaskReady(idx)
		if refOK != fastOK {
			o.record(fmt.Errorf(
				"oracle: after event %d, task %d (%s): Enabled reports %v but the ready-set bit is %v (oracle-ready-set)",
				o.events, idx, o.sys.TaskLabel(tr), refOK, fastOK))
			continue
		}
		if refOK && o.sys.ReadyAction(idx) != refAct {
			o.record(fmt.Errorf(
				"oracle: after event %d, task %d (%s): cached ready action %v but Enabled reports %v (oracle-ready-act)",
				o.events, idx, o.sys.TaskLabel(tr), o.sys.ReadyAction(idx), refAct))
		}
	}
}

// checkDeliverySet re-derives the delivery-set of the event just performed —
// every non-owner automaton whose Accepts admits it, found by scanning the
// whole composition — and diffs it against the routing index's
// Accepts-filtered candidates.  Accepts is a static signature predicate
// (identity-only in every automaton of this repository), so checking after
// the state change is sound.
func (o *Oracle) checkDeliverySet(owner int, act ioa.Action) {
	autos := o.sys.Automata()
	ref := o.refBuf[:0]
	for ai, a := range autos {
		if ai != owner && a.Accepts(act) {
			ref = append(ref, ai)
		}
	}
	fast := o.fastBuf[:0]
	o.candBuf = o.sys.DeliveryCandidates(act, o.candBuf)
	for _, ai := range o.candBuf {
		if ai != owner && autos[ai].Accepts(act) {
			fast = append(fast, ai)
		}
	}
	o.refBuf, o.fastBuf = ref, fast
	if !equalInts(ref, fast) {
		o.record(fmt.Errorf(
			"oracle: event %d (%v): routing index delivers to automata %v but a full Accepts scan finds %v (oracle-delivery-set)",
			o.events, act, fast, ref))
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
