package ioa

import (
	"fmt"
	"math/bits"

	"repro/internal/telemetry"
)

// System is a composition of I/O automata (paper Section 2.3).  When a
// locally controlled action of one automaton fires, every other automaton
// that accepts the same Action value receives it as an input in the same
// step, exactly as same-named actions are performed together under
// composition.
//
// The System records the trace of external events as they occur.  Internal
// actions (KindInternal) are performed but not traced, which implements the
// paper's hiding operator for actions the owner declares internal.
//
// Two structures make stepping O(affected) instead of O(composition):
//
//   - an action-routing index, built at composition time: automata that
//     implement Signatured are delivered only actions whose SigKey they
//     declared; the rest land on a wildcard list consulted for every action.
//     Candidates are still filtered through Accepts, so routing never
//     changes which automata receive an action — only how they are found.
//   - an incremental ready-set: a bitset over the flattened task list with
//     the enabled action cached per task.  An event can only change the
//     enabledness of the firing automaton and the acceptors it was delivered
//     to (Enabled is a function of the automaton's own state, see the
//     Automaton contract), so Apply re-polls exactly those automata's tasks.
//     Schedulers iterate ready tasks via NextReady instead of rescanning
//     Tasks(); iteration order is ascending task index, which matches the
//     pre-index full-scan order, so schedules are unchanged.
type System struct {
	autos    []Automaton
	tasks    []TaskRef        // flattened task list, fixed at construction
	taskBase []int            // automaton index -> first flattened task index; len(autos)+1 entries
	routes   map[SigKey][]int // routing index: key -> ascending automaton indices
	wildcard []int            // ascending indices of automata without SignatureKeys
	fireLoc  []FireLocalized  // cached FireLocalized view per automaton, nil entries otherwise
	ready    []uint64         // bitset over flattened task indices
	readyAct []Action         // cached enabled action per ready task
	// Per-task routing cache for the scheduler fast path (ApplyReady): the
	// merged delivery-candidate list of readyAct's signature key, refreshed
	// by repollOne only when the key changes.  A task's key is stable in
	// steady state (a generator task always emits the same output key, a
	// channel task the same receive key), so the per-event SigKey hash +
	// routes lookup amortizes to zero.  nil on clones — execution-tree
	// drivers apply via Apply and would pay O(tasks) to copy the cache.
	readyKey   []SigKey
	readyCands [][]int
	dirty      []int               // scratch: automata touched by the current Apply
	cands      []int               // scratch: merged delivery candidates of the current Apply
	trace      []Action            // external events, per traceMode
	traceMode  TraceMode           // how Apply records visible events
	traceCap   int                 // ring capacity when traceMode == TraceRing
	traceStart int                 // ring: index of the oldest retained event
	steps      int                 // total events fired (including internal)
	hidden     func(Action) bool   // reclassified-as-internal predicate, may be nil
	observers  []Observer          // post-Apply hooks, in AddObserver order
	tel        *telemetry.Registry // metrics and trace, nil when telemetry is off
	telTrace   bool                // tel's tracing plane active: format rich trace labels
}

// TraceMode selects how Apply records visible (external, un-hidden) events.
// Routing, delivery, the ready-set, Steps, telemetry, and observers are
// identical under every mode — only what Trace() retains differs, so a run's
// schedule is byte-for-byte independent of its trace mode.
type TraceMode uint8

const (
	// TraceAll retains every visible event forever (the default, and the
	// only correct mode for checkers, golden traces, and chaos artifacts,
	// which consume complete traces).
	TraceAll TraceMode = iota
	// TraceOff retains nothing.  For throughput benchmarks and drivers
	// that maintain their own event bookkeeping: a 100k-step run no longer
	// accumulates 100k Actions of garbage-collected history.
	TraceOff
	// TraceRing retains the most recent cap events in a ring, bounding
	// steady-state heap for long-running drivers that only inspect a
	// suffix.
	TraceRing
)

// SetTraceMode switches the trace retention policy.  cap is the ring
// capacity for TraceRing (values < 1 fall back to TraceAll) and ignored
// otherwise.  Switching modes mid-run keeps the events already retained;
// switching to TraceRing trims to the newest cap.  Clones inherit the mode.
func (s *System) SetTraceMode(m TraceMode, cap int) {
	if m == TraceRing && cap < 1 {
		m = TraceAll
	}
	// Normalize the retained prefix so the new mode starts from a flat,
	// in-order slice.
	s.trace = s.Trace()
	s.traceStart = 0
	s.traceMode, s.traceCap = m, cap
	if m == TraceRing && len(s.trace) > cap {
		s.trace = append(s.trace[:0], s.trace[len(s.trace)-cap:]...)
	}
}

// Observer is notified after every Apply, once the event's effects (owner
// Fire, deliveries, trace recording, ready-set maintenance) are complete.
// owner is the firing automaton's index, or -1 for externally injected
// events.  Observers exist for layers that watch fired events — invariant
// checks (package oracle), detector QoS (chaos.TelemetryHook) — and must
// not mutate the system.  A system without observers pays one empty loop
// per Apply.
type Observer func(owner int, act Action)

// AddObserver appends o to the post-Apply observers; every observer sees
// every event, in the order the observers were added.  Clones never
// inherit observers: an observer typically closes over its system, and
// execution-tree drivers clone thousands of systems per run.
func (s *System) AddObserver(o Observer) { s.observers = append(s.observers, o) }

// SetTelemetry installs (or, with nil, removes) the system's telemetry
// registry.  Like observers, clones never inherit it: execution-tree
// drivers clone thousands of systems per run, and their steps would drown
// the trace.  The disabled path is one predictable branch per Apply;
// instrumentation is strictly read-only, so golden traces are
// byte-identical with a registry on.
//
// Whether the registry's tracing plane is active (Registry.TracingActive)
// is sampled here, once: rich per-event trace labels are only formatted
// when someone will actually export the trace ring, keeping the
// metrics-only steady state allocation-free.
func (s *System) SetTelemetry(tel *telemetry.Registry) {
	s.tel = tel
	s.telTrace = tel.TracingActive()
}

// NewSystem composes the given automata.  It returns an error if two automata
// share a name (composition requires uniquely named components).
func NewSystem(autos ...Automaton) (*System, error) {
	seen := make(map[string]bool, len(autos))
	for _, a := range autos {
		if seen[a.Name()] {
			return nil, fmt.Errorf("ioa: duplicate automaton name %q in composition", a.Name())
		}
		seen[a.Name()] = true
	}
	s := &System{autos: autos, routes: make(map[SigKey][]int)}
	s.taskBase = make([]int, len(autos)+1)
	s.fireLoc = make([]FireLocalized, len(autos))
	for ai, a := range autos {
		s.taskBase[ai] = len(s.tasks)
		for t := 0; t < a.NumTasks(); t++ {
			s.tasks = append(s.tasks, TaskRef{Auto: ai, Task: t})
		}
		if sig, ok := a.(Signatured); ok {
			for _, k := range sig.SignatureKeys() {
				s.routes[k] = append(s.routes[k], ai)
			}
		} else {
			s.wildcard = append(s.wildcard, ai)
		}
		if fl, ok := a.(FireLocalized); ok {
			s.fireLoc[ai] = fl
		}
	}
	s.taskBase[len(autos)] = len(s.tasks)
	s.ready = make([]uint64, (len(s.tasks)+63)/64)
	s.readyAct = make([]Action, len(s.tasks))
	s.readyKey = make([]SigKey, len(s.tasks))
	s.readyCands = make([][]int, len(s.tasks))
	for ai := range autos {
		s.repoll(ai)
	}
	return s, nil
}

// MustNewSystem is NewSystem for statically correct compositions; it panics
// on the construction errors NewSystem reports (programmer error).
func MustNewSystem(autos ...Automaton) *System {
	s, err := NewSystem(autos...)
	if err != nil {
		panic(err)
	}
	return s
}

// Automata returns the composed automata in order.
func (s *System) Automata() []Automaton { return s.autos }

// Automaton returns the component with the given name, or nil.
func (s *System) Automaton(name string) Automaton {
	for _, a := range s.autos {
		if a.Name() == name {
			return a
		}
	}
	return nil
}

// Tasks returns the flattened task list of the composition.  The returned
// slice is owned by the System and must not be modified.
func (s *System) Tasks() []TaskRef { return s.tasks }

// TaskAt returns the task with the given flattened index (the index NextReady
// iterates over; tasks of one automaton are contiguous).
func (s *System) TaskAt(idx int) TaskRef { return s.tasks[idx] }

// TaskLabel renders tr as "automaton/task-label".
func (s *System) TaskLabel(tr TaskRef) string {
	a := s.autos[tr.Auto]
	return a.Name() + "/" + a.TaskLabel(tr.Task)
}

// Enabled returns the action enabled in task tr, if any.
func (s *System) Enabled(tr TaskRef) (Action, bool) {
	return s.autos[tr.Auto].Enabled(tr.Task)
}

// repoll refreshes the ready-set entries of every task of automaton ai.
func (s *System) repoll(ai int) {
	a := s.autos[ai]
	for idx := s.taskBase[ai]; idx < s.taskBase[ai+1]; idx++ {
		s.repollOne(a, ai, idx)
	}
}

// repollOne refreshes the ready-set entry of the single flattened task idx,
// which must belong to automaton ai.
func (s *System) repollOne(a Automaton, ai, idx int) {
	if act, ok := a.Enabled(idx - s.taskBase[ai]); ok {
		s.ready[idx>>6] |= 1 << (uint(idx) & 63)
		s.readyAct[idx] = act
		if s.readyCands != nil {
			// Refresh the routing cache only on key change (a real key's
			// Kind is non-zero, so the zero value never false-hits).
			if k := KeyOf(act); k != s.readyKey[idx] {
				s.readyKey[idx] = k
				s.readyCands[idx] = s.appendCandidates(act, s.readyCands[idx][:0])
			}
		}
	} else {
		s.ready[idx>>6] &^= 1 << (uint(idx) & 63)
		s.readyAct[idx] = Action{}
	}
}

// NextReady returns the smallest ready (enabled) task index greater than
// after, or ok=false when none remains.  Pass -1 to start a scan.  The
// ready-set is maintained incrementally by Apply, so iterating with
// NextReady while firing is equivalent to polling every task of Tasks() in
// order against the current state.
func (s *System) NextReady(after int) (int, bool) {
	idx := after + 1
	if idx < 0 {
		idx = 0
	}
	for w := idx >> 6; w < len(s.ready); w++ {
		word := s.ready[w]
		if w == idx>>6 {
			word &= ^uint64(0) << (uint(idx) & 63)
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word), true
		}
	}
	return 0, false
}

// TaskReady reports whether the task with flattened index idx is enabled.
func (s *System) TaskReady(idx int) bool {
	return s.ready[idx>>6]&(1<<(uint(idx)&63)) != 0
}

// ReadyAction returns the cached enabled action of ready task idx.  It is
// only meaningful while TaskReady(idx) holds (callers obtain idx from
// NextReady and must not hold it across an Apply).
func (s *System) ReadyAction(idx int) Action { return s.readyAct[idx] }

// NumReady returns the number of currently enabled tasks.
func (s *System) NumReady() int {
	n := 0
	for _, w := range s.ready {
		n += bits.OnesCount64(w)
	}
	return n
}

// Step fires the action enabled in task tr, if any, delivering it to every
// accepting automaton.  It returns the fired action and whether the task was
// enabled.  The action is appended to the trace unless it is internal.
func (s *System) Step(tr TaskRef) (Action, bool) {
	owner := s.autos[tr.Auto]
	act, ok := owner.Enabled(tr.Task)
	if !ok {
		return Action{}, false
	}
	s.Apply(tr.Auto, act)
	return act, true
}

// Apply performs action act owned by automaton index owner: the owner's Fire
// effect, then delivery to every other accepting automaton, then trace
// recording.  It is exposed for drivers (such as the execution tree of
// Section 8) that feed externally sourced events — e.g. failure-detector
// outputs taken from a fixed trace tD — by passing owner = -1, in which case
// no Fire is applied and the action is delivered to acceptors only.
//
// Delivery candidates come from the routing index (declared-key automata for
// KeyOf(act), merged with the wildcard list in ascending automaton order —
// the same visit order as the pre-index scan over all automata) and are
// filtered through Accepts, so the delivered-to set is exactly the set the
// full scan would find.
func (s *System) Apply(owner int, act Action) {
	s.cands = s.appendCandidates(act, s.cands[:0])
	s.applyWith(owner, act, s.cands)
}

// ApplyReady fires the cached ready action of flattened task idx — the
// (task, action) pair a scheduler just obtained from NextReady/ReadyAction —
// through the task's cached routing candidates, skipping the per-event
// SigKey hash and routes lookup.  Returns the fired action.  It is exactly
// Apply(TaskAt(idx).Auto, ReadyAction(idx)); on systems without the routing
// cache (clones) it falls back to Apply.  Only meaningful while
// TaskReady(idx) holds.
func (s *System) ApplyReady(idx int) Action {
	act := s.readyAct[idx]
	owner := s.tasks[idx].Auto
	if s.readyCands == nil {
		s.Apply(owner, act)
		return act
	}
	// Copy out of the cache before firing: the owner's Fire re-poll may
	// refresh this very task's cached candidate list in place.
	s.cands = append(s.cands[:0], s.readyCands[idx]...)
	s.applyWith(owner, act, s.cands)
	return act
}

// applyWith is the shared Apply core; cands must be the merged delivery
// candidates for act (appendCandidates order) and must not alias any
// per-task cache entry.
func (s *System) applyWith(owner int, act Action, cands []int) {
	s.dirty = s.dirty[:0]
	if owner >= 0 {
		s.autos[owner].Fire(act)
		if fl := s.fireLoc[owner]; fl != nil {
			// Task-local fire: re-poll just the touched task now (the
			// acceptors' inputs cannot change the owner's state).
			if t := fl.FireTouches(act); t >= 0 {
				s.repollOne(s.autos[owner], owner, s.taskBase[owner]+t)
			} else {
				s.dirty = append(s.dirty, owner)
			}
		} else {
			s.dirty = append(s.dirty, owner)
		}
	}
	// Each delivery appends its acceptor to s.dirty, so the delivery count
	// falls out of the slice growth.  The candidate merge landed in a
	// scratch slice (not a closure) so the steady-state apply performs no
	// allocation at all.
	dirtyBase := len(s.dirty)
	for _, ai := range cands {
		if ai == owner {
			continue
		}
		if a := s.autos[ai]; a.Accepts(act) {
			a.Input(act)
			s.dirty = append(s.dirty, ai)
		}
	}
	ndeliv := len(s.dirty) - dirtyBase
	s.steps++
	if s.visible(&act) {
		switch s.traceMode {
		case TraceAll:
			if len(s.trace) == cap(s.trace) {
				// Double a full log: plain append grows a large slice by
				// only ~1.25x, so a long run would allocate several times
				// its own log and re-copy it at every step of the way.
				s.growTrace(len(s.trace) + 1)
			}
			s.trace = append(s.trace, act)
		case TraceRing:
			if len(s.trace) < s.traceCap {
				s.trace = append(s.trace, act)
			} else {
				s.trace[s.traceStart] = act
				if s.traceStart++; s.traceStart == s.traceCap {
					s.traceStart = 0
				}
			}
		}
	}
	// Only the owner and the automata that consumed the input can have
	// changed state, hence enabledness (Automaton contract: Enabled depends
	// on the receiver's own state only).
	for _, ai := range s.dirty {
		s.repoll(ai)
	}
	if s.tel != nil {
		s.telemetryApply(owner, act, ndeliv)
	}
	for _, o := range s.observers {
		o(owner, act)
	}
}

// telemetryApply records the completed event in the attached registry.
// Only called when s.tel != nil; kept out of Apply's body so the disabled
// path stays a single branch.
func (s *System) telemetryApply(owner int, act Action, ndeliv int) {
	s.tel.Count(telemetry.CEventsApplied, 1)
	if ndeliv > 0 {
		s.tel.Count(telemetry.CDeliveries, int64(ndeliv))
	}
	if act.Kind == KindCrash {
		s.tel.Count(telemetry.CCrashes, 1)
		// act.String() allocates; only pay for the rich label when the
		// registry's tracing plane will actually export it.
		name := act.Name
		if s.telTrace {
			name = act.String()
		}
		s.tel.Instant(telemetry.CatCrash, name, int32(owner), int64(ndeliv))
	} else {
		s.tel.Instant(telemetry.CatIOA, act.Name, int32(owner), int64(ndeliv))
	}
}

// appendCandidates appends the routing index's delivery candidates for act
// to out — the declared-key automata for KeyOf(act) merged with the wildcard
// list in ascending automaton order (the same visit order as the pre-index
// full scan).  Candidates still need Accepts filtering; both Apply and the
// oracle's delivery-set check go through this one merge so the checked set
// and the executed set cannot silently diverge.
func (s *System) appendCandidates(act Action, out []int) []int {
	keyed := s.routes[KeyOf(act)]
	i, j := 0, 0
	for i < len(keyed) || j < len(s.wildcard) {
		var ai int
		switch {
		case i >= len(keyed):
			ai = s.wildcard[j]
			j++
		case j >= len(s.wildcard) || keyed[i] < s.wildcard[j]:
			ai = keyed[i]
			i++
		default:
			ai = s.wildcard[j]
			j++
		}
		out = append(out, ai)
	}
	return out
}

// DeliveryCandidates appends the ascending automaton indices the routing
// index would consider for act — before Accepts filtering — to buf[:0] and
// returns it, so a sweeping caller can reuse one buffer across sweeps
// instead of allocating per call.  Exposed for the oracle layer, which diffs
// this set against a first-principles scan of all automata.
func (s *System) DeliveryCandidates(act Action, buf []int) []int {
	return s.appendCandidates(act, buf[:0])
}

// Hide reclassifies matching actions as internal to the composition (the
// hiding operator of Section 2.3): they still synchronize all component
// automata but no longer appear in the trace.  Hiding composes: multiple
// calls hide the union.  Hiding never affects routing or the ready-set —
// hidden actions are delivered exactly like visible ones.
func (s *System) Hide(pred func(Action) bool) {
	prev := s.hidden
	if prev == nil {
		s.hidden = pred
		return
	}
	s.hidden = func(a Action) bool { return prev(a) || pred(a) }
}

// Visible reports whether act is a visible event of the composition: an
// external action not reclassified by Hide.  Apply traces exactly the
// visible events it performs (under TraceAll); Visible reads no state but
// the hiding predicate, so a replay can tell what Apply would trace without
// keeping the log.
func (s *System) Visible(act Action) bool { return s.visible(&act) }

// visible is Visible, taking act by address: inlined into applyWith, a
// by-value Action parameter would be copied on every event.
func (s *System) visible(act *Action) bool {
	return act.Kind != KindInternal && (s.hidden == nil || !s.hidden(*act))
}

// ReserveTrace makes room for n more visible events under TraceAll in one
// allocation, so the next n events append without allocating.  Drivers
// that know a run's length — a replay of a recorded trace — call it before
// the first event; a log whose length is unknown grows by doubling.  It
// never caps the log, and it is a no-op under TraceRing and TraceOff.
func (s *System) ReserveTrace(n int) {
	if s.traceMode == TraceAll {
		s.growTrace(n)
	}
}

// growTrace makes room for n more events in one allocation and one copy.
// (slices.Grow does the same, but built with -race it also allocates a
// scratch slice of n events.)
func (s *System) growTrace(n int) {
	if cap(s.trace)-len(s.trace) < n {
		s.trace = append(make([]Action, 0, len(s.trace)+n), s.trace...)
	}
}

// Trace returns the retained external events in order of occurrence: all of
// them under TraceAll, the newest traceCap under TraceRing, none under
// TraceOff.  The returned slice is owned by the System except when a wrapped
// ring must be unrotated; callers must copy before mutating either way.
// Under TraceAll it is the System's own log, not a copy, and its capacity
// may exceed its length (the log doubles when full, or was sized by
// ReserveTrace): a caller handing it on past the run clips it
// (slices.Clip), so an append to the handed-on slice cannot write into the
// System's spare capacity.
func (s *System) Trace() []Action {
	if s.traceMode == TraceRing && s.traceStart > 0 {
		out := make([]Action, 0, len(s.trace))
		out = append(out, s.trace[s.traceStart:]...)
		return append(out, s.trace[:s.traceStart]...)
	}
	return s.trace
}

// Steps returns the total number of events performed, including internal.
func (s *System) Steps() int { return s.steps }

// Quiescent reports whether no task of the composition is enabled.
func (s *System) Quiescent() bool {
	for _, w := range s.ready {
		if w != 0 {
			return false
		}
	}
	return true
}

// cloneInto copies the per-execution state into a System sharing the
// immutable composition structure (tasks, taskBase, routes, wildcard).
func (s *System) cloneInto() *System {
	autos := make([]Automaton, len(s.autos))
	for i, a := range s.autos {
		autos[i] = a.Clone()
	}
	return s.cloneWith(autos)
}

// cloneWith wraps an already-built automaton list in a copy of s's
// per-execution state.
func (s *System) cloneWith(autos []Automaton) *System {
	c := &System{
		autos:     autos,
		tasks:     s.tasks,
		taskBase:  s.taskBase,
		routes:    s.routes,
		wildcard:  s.wildcard,
		steps:     s.steps,
		hidden:    s.hidden,
		traceMode: s.traceMode,
		traceCap:  s.traceCap,
	}
	c.fireLoc = make([]FireLocalized, len(autos))
	for i, a := range autos {
		if fl, ok := a.(FireLocalized); ok {
			c.fireLoc[i] = fl
		}
	}
	c.ready = append([]uint64(nil), s.ready...)
	c.readyAct = append([]Action(nil), s.readyAct...)
	return c
}

// Clone returns a deep copy of the system, including its automata and trace.
func (s *System) Clone() *System {
	c := s.cloneInto()
	c.trace = append([]Action(nil), s.trace...)
	c.traceStart = s.traceStart
	return c
}

// CloneBare returns a deep copy of the system with an empty trace.  Drivers
// that maintain their own event bookkeeping (the execution tree) use this to
// avoid O(trace) copies per node.
func (s *System) CloneBare() *System { return s.cloneInto() }

// CloneForApply returns a copy prepared for exactly one Apply(owner, act):
// the automata that apply will mutate — the owner and every accepting
// delivery candidate — are deep-cloned; all others are SHARED with s.
// cands must be DeliveryCandidates(act, ...) (any superset of the accepting
// set is safe).  The trace is empty, like CloneBare.
//
// Sharing is only sound when s itself will never fire another action: the
// execution-tree explorer derives each child state from a parent system
// that is frozen after its own derivation, so untouched automata — the
// vast majority per event — need no copy.  Callers that cannot guarantee
// the parent is frozen must use CloneBare.
func (s *System) CloneForApply(owner int, act Action, cands []int) *System {
	return s.CloneForApplyInto(nil, owner, act, cands)
}

// CloneForApplyInto is CloneForApply building the copy in dst's storage —
// the System header and its automaton, ready-set and scratch slices — and
// returning dst.  dst must come from the same composition as s and must no
// longer be referenced anywhere: its automata are not touched (clones share
// them), only overwritten in dst's slices.  A nil dst allocates a new System.
// Explorers that retire one derived System per node recycle them through
// here instead of allocating a fresh set of buffers per node.
func (s *System) CloneForApplyInto(dst *System, owner int, act Action, cands []int) *System {
	if dst == nil {
		dst = &System{}
	}
	*dst = System{
		autos:     append(dst.autos[:0], s.autos...),
		tasks:     s.tasks,
		taskBase:  s.taskBase,
		routes:    s.routes,
		wildcard:  s.wildcard,
		fireLoc:   append(dst.fireLoc[:0], s.fireLoc...),
		ready:     append(dst.ready[:0], s.ready...),
		readyAct:  append(dst.readyAct[:0], s.readyAct...),
		dirty:     dst.dirty[:0],
		cands:     dst.cands[:0],
		trace:     dst.trace[:0],
		traceMode: s.traceMode,
		traceCap:  s.traceCap,
		steps:     s.steps,
		hidden:    s.hidden,
	}
	if owner >= 0 {
		dst.cloneAuto(owner)
	}
	for _, ai := range cands {
		if ai != owner && s.autos[ai].Accepts(act) {
			dst.cloneAuto(ai)
		}
	}
	return dst
}

// cloneAuto replaces automaton ai (shared with the clone's source) by a deep
// copy, keeping its cached FireLocalized view pointed at the copy.
func (s *System) cloneAuto(ai int) {
	c := s.autos[ai].Clone()
	s.autos[ai] = c
	s.fireLoc[ai], _ = c.(FireLocalized)
}
