package valence

// Partial-order reduction for the valence explorer: ample-set selection
// clustered by action location, derived statically from the composition's
// routing index (ioa.SigKey ownership — see ioa.Sites) plus the tagged FD
// event sequence.  See DESIGN.md §13 for the soundness argument; the short
// version:
//
//   - Steps are clustered by the location λ(act) at which their action
//     occurs.  Two steps at different locations are independent — they write
//     disjoint automata — with a single exception: a send at i appending to
//     the FIFO channel chan[i>j] and a delivery at j popping it.  That pair
//     still commutes byte-exactly whenever the delivery is enabled (the
//     append cannot change the head of a nonempty ring, and the pop cannot
//     touch the sender's outbox), which is the only situation ample-set
//     persistence ever needs.
//
//   - An ample cluster at location m is eligible only when (A) no later FD
//     event of the tagged sequence occurs at m (the FD edge itself may join
//     the ample set when the *next* event is at m), (B) every cross-location
//     automaton firing into m (in this codebase: FIFO channels chan[k>m])
//     either has all of its tasks enabled or has a provably silent writer
//     side — no location that could ever send on it is live or wakeable,
//     computed as a closure over static input→fire wake edges — and (C) no
//     enabled cluster step is visible, i.e. outputs to the environment
//     (decide actions are the only actions the valence verdicts observe;
//     crashes and FD outputs arrive via the FD edge and are never task
//     steps).  The cycle proviso and bivalent-region completeness are
//     enforced post hoc by the engine's analysis rounds (parallel.go), which
//     force-re-expand any reduced node on a task-edge cycle or with a
//     bivalent verdict until a fixpoint.
//
// Eligibility is a pure function of (system state, fd index), so every
// worker — at any Config.Workers — makes the same choice at the same node
// and the renumbered tables stay byte-identical.

import (
	"errors"
	"fmt"

	"repro/internal/ioa"
)

// maxReduceLocs bounds Config.N under reduction: the wake/suffix sets are
// uint64 location bitmasks.
const maxReduceLocs = 64

// reduceInfo is the static (per-composition, per-TD) reduction metadata.
// It is immutable after New and shared read-only by all workers.
type reduceInfo struct {
	n     int            // locations 0..n-1
	sites []ioa.SiteInfo // per automaton

	// taskSite[t] is the fire site of the automaton owning flattened task t:
	// the location every action enabled on t must occur at (re-checked
	// dynamically; mismatch poisons the node back to full expansion).
	taskSite []int16

	// crossAutos[m] lists the automata that fire into m from elsewhere
	// (Input != Fire == m) — the channels whose heads outside steps could
	// create.  Condition (B) inspects their task readiness.
	crossAutos [][]crossAuto

	// recvAcc[m] are the automata a cross-location delivery at m writes
	// besides its own channel (the KindReceive acceptors — processes).
	// When every one of them is quiescent (ioa.QuiescentReporter: final
	// state, inputs absorbed byte-identically), condition (B) is skipped:
	// a delivery enabled later by an outside send then touches only its
	// own channel, so it is independent of every ample step.
	recvAcc [][]int32

	// localAutos[k] are the automata sited entirely at k (Input == Fire).
	// They are the only possible emitters of KindSend actions at k — a
	// KindSend-keyed automaton (a channel) fires only receives, per the
	// convention Sites encodes — so when every one of them is quiescent,
	// no channel out of k can ever grow again: an empty chan[k>m] stays
	// empty forever and cannot gate condition (B).  Quiescence is stable
	// under future inputs (the capability's contract), so this holds along
	// every outside path, FD events included.
	localAutos [][]int32

	// wake[k] is the transitively closed set of locations reachable from k
	// via static input→fire edges: if location k can act, any location in
	// wake[k] may eventually act too.  Used to decide that a channel's
	// writer side is provably silent.
	wake []uint64

	// suffix[f] is the set of locations at which TD events f.. occur
	// (suffix[len(TD)] = 0).  tdLoc[f] is TD[f]'s location, or -1 when the
	// event has no concrete location (reduction then falls back to full
	// expansion at nodes with that fd).
	suffix []uint64
	tdLoc  []int16

	// tFirst/tLast give automaton ai's flattened task range [tFirst, tLast)
	// (tFirst = -1 when it has none); used to decide whether an automaton
	// without prospect capabilities could fire at all.
	tFirst []int32
	tLast  []int32
}

// crossAuto is one automaton firing into a cluster from outside.
type crossAuto struct {
	in     int16 // writer location (the automaton's input site)
	t0, t1 int32 // its flattened task range [t0, t1)
}

// buildReduceInfo derives the reduction metadata, or an error when the
// composition does not admit location clustering (wildcard routing, unsited
// automata) — Config.Reduce then fails loudly at New rather than silently
// exploring the full tree.
func buildReduceInfo(sys *ioa.System, cfg Config) (*reduceInfo, error) {
	sites, ok := sys.Sites()
	if !ok {
		return nil, errors.New("valence: composition does not admit reduction (wildcard or multi-location automata)")
	}
	n := cfg.N
	if n <= 0 || n > maxReduceLocs {
		return nil, fmt.Errorf("valence: reduction supports 1..%d locations, got %d", maxReduceLocs, n)
	}
	r := &reduceInfo{n: n, sites: sites}
	for ai, st := range sites {
		if int(st.Input) >= n || int(st.Fire) >= n {
			return nil, fmt.Errorf("valence: automaton %d sited outside 0..%d (input %d, fire %d)", ai, n-1, st.Input, st.Fire)
		}
	}

	// Flattened task → fire site, and per-automaton task ranges.
	tasks := sys.Tasks()
	r.taskSite = make([]int16, len(tasks))
	first := make([]int32, len(sites))
	last := make([]int32, len(sites))
	for i := range first {
		first[i] = -1
	}
	for ti, tr := range tasks {
		r.taskSite[ti] = int16(sites[tr.Auto].Fire)
		if first[tr.Auto] < 0 {
			first[tr.Auto] = int32(ti)
		}
		last[tr.Auto] = int32(ti) + 1
	}
	r.tFirst, r.tLast = first, last

	// Cross-location automata per fire site, local automata per site, and
	// static wake edges.
	r.crossAutos = make([][]crossAuto, n)
	r.localAutos = make([][]int32, n)
	adj := make([]uint64, n) // input site → fire sites it can wake
	for ai, st := range sites {
		adj[st.Input] |= 1 << uint(st.Fire)
		if st.Fire == st.Input {
			r.localAutos[st.Fire] = append(r.localAutos[st.Fire], int32(ai))
		}
		if st.Fire != st.Input {
			if first[ai] < 0 {
				// An automaton with no tasks never fires; it cannot gate a
				// cluster (nothing it would ever do), so skip it.
				continue
			}
			r.crossAutos[st.Fire] = append(r.crossAutos[st.Fire], crossAuto{
				in: int16(st.Input), t0: first[ai], t1: last[ai],
			})
		}
	}
	r.recvAcc = make([][]int32, n)
	for m, accs := range sys.ReceiveAcceptors(n) {
		for _, ai := range accs {
			r.recvAcc[m] = append(r.recvAcc[m], int32(ai))
		}
	}

	// Transitive closure of the wake relation (n ≤ 64, so this is cheap).
	for changed := true; changed; {
		changed = false
		for k := 0; k < n; k++ {
			m := adj[k]
			b := m
			for j := 0; j < n; j++ {
				if m&(1<<uint(j)) != 0 {
					b |= adj[j]
				}
			}
			if b != m {
				adj[k] = b
				changed = true
			}
		}
	}
	r.wake = adj

	// TD suffix location sets.
	r.suffix = make([]uint64, len(cfg.TD)+1)
	r.tdLoc = make([]int16, len(cfg.TD))
	for f := len(cfg.TD) - 1; f >= 0; f-- {
		m := r.suffix[f+1]
		l := cfg.TD[f].Loc
		if int(l) < 0 || int(l) >= n || cfg.TD[f].Kind == ioa.KindEnvOut {
			// Unsited TD event — or a visible one smuggled into a hand-built
			// sequence — blocks every cluster below it.
			r.tdLoc[f] = -1
			m = ^uint64(0)
		} else {
			r.tdLoc[f] = int16(l)
			m |= 1 << uint(l)
		}
		r.suffix[f] = m
	}
	return r, nil
}

// ampleVerdict is the outcome of ample selection at one node.
type ampleVerdict uint8

const (
	ampleFull     ampleVerdict = iota // no eligible proper cluster: expand fully
	ampleReduced                      // expand only the selected cluster
	amplePoisoned                     // site contract violated: expand fully, count it
)

// ampleSel is a selected ample set: the ready tasks of one location cluster,
// plus possibly the FD edge when the next TD event occurs there.
type ampleSel struct {
	tasks  []int32 // ready flattened tasks of the chosen site (aliases scratch)
	site   int16
	fdEdge bool  // the FD edge is part of the ample set
	pruned int32 // enabled steps not expanded at this node
	total  int32 // all enabled steps (tasks + FD edge) at this node
}

// ampleScratch is per-worker scratch for selectAmple, including the lazily
// computed per-node site prospects (what each location could still fire
// without receiving further inputs) and the per-cluster input-capability
// fixpoint.
type ampleScratch struct {
	siteTasks [][]int32
	fbuf      []int

	haveSite bool     // pendSend/pendFeed/canSend valid for this node
	pendSend []uint64 // per site: destination mask of queued sends
	pendFeed []bool   // per site: queued non-send action feeds a live local
	canSend  []bool   // per site: a local could emit fresh sends on input
	inputCap []bool   // per cluster: fixpoint, see inputCapFix

	// prospect is addProspect bound once, so siteProspects hands the same
	// yield to every PendingProspects call instead of a fresh closure per
	// node; pk and psys are the site and System it is filling in for.
	prospect func(ioa.Action) bool
	pk       int
	psys     *ioa.System
}

// selectAmple picks the ample set at a node, as a pure function of the
// system state and fd index.  Verdicts:
//
//	ampleReduced — sel holds a proper eligible cluster (strictly fewer steps
//	               than full expansion); chosen as the smallest eligible
//	               cluster, ties broken by lowest location, so the choice is
//	               deterministic across workers.
//	ampleFull    — no proper cluster is eligible; expand everything.
//	amplePoisoned — some enabled action does not occur at its task's derived
//	               fire site: the static site claim failed, fall back to
//	               full expansion (soundness is preserved, reduction is lost
//	               at this node; counted so the oracle can flag it).
func (r *reduceInfo) selectAmple(sys *ioa.System, fd int, sc *ampleScratch) (ampleSel, ampleVerdict) {
	n := r.n
	if sc.siteTasks == nil {
		sc.siteTasks = make([][]int32, n)
		sc.pendSend = make([]uint64, n)
		sc.pendFeed = make([]bool, n)
		sc.canSend = make([]bool, n)
		sc.inputCap = make([]bool, n)
	}
	for m := range sc.siteTasks {
		sc.siteTasks[m] = sc.siteTasks[m][:0]
	}
	sc.haveSite = false

	// Bucket ready tasks by site, re-verifying the site claim and checking
	// visibility (environment outputs are the actions verdicts observe).
	// recvSeed collects the sites where an enabled delivery would write a
	// still-live acceptor — the ready-now seeds of the inputCap fixpoint.
	total := int32(0)
	var readyMask, visMask, recvSeed uint64
	for ti := range r.taskSite {
		if !sys.TaskReady(ti) {
			continue
		}
		total++
		m := r.taskSite[ti]
		act := sys.ReadyAction(ti)
		if int16(act.Loc) != m {
			return ampleSel{}, amplePoisoned
		}
		if act.Kind == ioa.KindEnvOut {
			visMask |= 1 << uint(m)
		}
		if act.Kind == ioa.KindReceive && !r.acceptorsQuiescent(sys, int(m)) {
			recvSeed |= 1 << uint(m)
		}
		sc.siteTasks[m] = append(sc.siteTasks[m], int32(ti))
		readyMask |= 1 << uint(m)
	}

	hasFD := fd < len(r.tdLoc)
	fdLoc := int16(-1)
	if hasFD {
		fdLoc = r.tdLoc[fd]
		if fdLoc < 0 {
			return ampleSel{}, ampleFull // unsited TD event: cannot cluster here
		}
	}
	totalSteps := total
	if hasFD {
		totalSteps++
	}
	if totalSteps == 0 {
		return ampleSel{}, ampleFull // terminal node
	}

	// mayAct: locations that can act now or be woken transitively — ready
	// sites, sites of pending TD events, and everything their fires reach.
	mayAct := readyMask | r.suffix[fd]
	closed := mayAct
	for k := 0; k < n; k++ {
		if mayAct&(1<<uint(k)) != 0 {
			closed |= r.wake[k] // wake is transitively closed: one pass
		}
	}
	mayAct = closed

	best := ampleSel{}
	bestSize := totalSteps
	found := false
	for m := 0; m < n; m++ {
		size := int32(len(sc.siteTasks[m]))
		fdHere := hasFD && fdLoc == int16(m)
		if fdHere {
			size++
		}
		if size == 0 || size >= bestSize {
			continue // C0, or no improvement over the current choice
		}
		// (C) visibility: no enabled cluster step outputs to the environment.
		if visMask&(1<<uint(m)) != 0 {
			continue
		}
		// (A) the TD suffix beyond the ample set must avoid m: a later FD
		// event at m would be reordered across deferred outside steps.
		// When the next event joins the ample set (fdHere) the check is
		// vacuous: the fd index only advances through FD edges, so no TD
		// event at all can fire on an ample-free path.
		if !fdHere && r.suffix[fd]&(1<<uint(m)) != 0 {
			continue
		}
		// sfxFix is the location mask of TD events outside paths can still
		// fire — empty when the FD edge is ample (see above).
		sfxFix := r.suffix[fd]
		if fdHere {
			sfxFix = 0
		}
		// (B) cross-location automata firing into m: either every task is
		// already enabled (outside steps can only append behind the heads
		// the cluster consumes), or the writer side is provably silent.
		// The whole condition is moot when every delivery acceptor at m is
		// quiescent — deliveries enabled later touch only their channel.
		if !r.acceptorsQuiescent(sys, m) {
			ok := true
			refined := false
			for _, ca := range r.crossAutos[m] {
				allReady := true
				for t := ca.t0; t < ca.t1; t++ {
					if !sys.TaskReady(int(t)) {
						allReady = false
						break
					}
				}
				if allReady {
					continue
				}
				// The writer side is silent when nothing can act or wake
				// there, or when every possible send emitter at ca.in is
				// permanently quiescent (the channel can never grow, so
				// its missing steps never exist).
				k := int(ca.in)
				if mayAct&(1<<uint(k)) == 0 || r.allQuiescent(sys, r.localAutos[k]) {
					continue
				}
				// Refined silence: consult what the writer site could
				// actually still fire.  It can append to chan[k>m] on an
				// ample-free path only if a send toward m is already queued
				// there, or a future input could reach its live locals and
				// make them emit one (the inputCap fixpoint).
				if !sc.haveSite {
					r.siteProspects(sys, sc)
					sc.haveSite = true
				}
				if !refined {
					r.inputCapFix(sys, sc, m, sfxFix|recvSeed)
					refined = true
				}
				if sc.pendSend[k]&(1<<uint(m)) != 0 ||
					(sc.inputCap[k] && sc.canSend[k]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
		}
		best = ampleSel{tasks: sc.siteTasks[m], site: int16(m), fdEdge: fdHere}
		bestSize = size
		found = true
	}
	if !found {
		return ampleSel{}, ampleFull
	}
	best.pruned = totalSteps - bestSize
	best.total = totalSteps
	return best, ampleReduced
}

// acceptorsQuiescent reports whether every delivery acceptor at site m is
// in a final, input-absorbing state (there must be at least one acceptor —
// no acceptors would mean the site metadata missed the delivery targets).
func (r *reduceInfo) acceptorsQuiescent(sys *ioa.System, m int) bool {
	if len(r.recvAcc[m]) == 0 {
		return false
	}
	return r.allQuiescent(sys, r.recvAcc[m])
}

// allQuiescent reports whether every listed automaton is permanently
// quiescent (ioa.QuiescentReporter; non-implementers are never quiescent).
func (r *reduceInfo) allQuiescent(sys *ioa.System, idx []int32) bool {
	autos := sys.Automata()
	for _, ai := range idx {
		q, ok := autos[ai].(ioa.QuiescentReporter)
		if !ok || !q.Quiescent() {
			return false
		}
	}
	return true
}

// siteProspects fills the per-site prospect tables for the current node:
// which destinations each site has sends queued toward (pendSend), whether a
// queued non-send action would write a still-live co-located automaton
// (pendFeed), and whether any local automaton could emit a fresh send in
// response to a future input (canSend — queued sends are pendSend's
// destination-precise business).  Automata without the prospect
// capabilities are handled conservatively — anything they could fire is
// unknown, so if they have a ready task they might send anywhere and feed
// anyone; if they are frozen (no ready task, and by the no-input premise no
// way to gain one) they contribute nothing queued.
func (r *reduceInfo) siteProspects(sys *ioa.System, sc *ampleScratch) {
	autos := sys.Automata()
	if sc.prospect == nil {
		sc.prospect = sc.addProspect
	}
	sc.psys = sys
	for k := 0; k < r.n; k++ {
		sc.pendSend[k] = 0
		sc.pendFeed[k] = false
		sc.canSend[k] = false
		for _, ai := range r.localAutos[k] {
			a := autos[ai]
			if q, ok := a.(ioa.QuiescentReporter); ok && q.Quiescent() {
				continue
			}
			if sp, ok := a.(ioa.SendProspector); ok {
				if sp.CanSend() {
					sc.canSend[k] = true
				}
			} else {
				sc.canSend[k] = true
			}
			pp, ok := a.(ioa.PendingProspect)
			if !ok {
				ready := false
				for t := r.tFirst[ai]; t >= 0 && t < r.tLast[ai]; t++ {
					if sys.TaskReady(int(t)) {
						ready = true
						break
					}
				}
				if ready {
					sc.pendSend[k] = ^uint64(0)
					sc.pendFeed[k] = true
				}
				continue
			}
			sc.pk = k
			pp.PendingProspects(sc.prospect)
		}
	}
}

// addProspect records one action a local automaton at site sc.pk might fire
// without further input: a queued send marks its destination, any other
// action marks the site as feeding a live co-located automaton if it writes
// one.
func (sc *ampleScratch) addProspect(act ioa.Action) bool {
	k := sc.pk
	if act.Kind == ioa.KindSend {
		if int(act.Peer) >= 0 && int(act.Peer) < len(sc.pendSend) {
			sc.pendSend[k] |= 1 << uint(act.Peer)
		} else {
			sc.pendSend[k] = ^uint64(0) // out of range: assume any
		}
		return true
	}
	if !sc.pendFeed[k] {
		autos := sc.psys.Automata()
		sc.fbuf = sc.psys.ActionFootprint(-1, act, sc.fbuf)
		for _, ti := range sc.fbuf {
			q, ok := autos[ti].(ioa.QuiescentReporter)
			if !ok || !q.Quiescent() {
				sc.pendFeed[k] = true
				break
			}
		}
	}
	return true
}

// inputCapFix computes, for candidate cluster m, the least fixpoint of
// "locals at k can receive a state-changing input along some ample-free
// path".  Seeds: the seed mask (TD events outside paths can still fire,
// plus sites with an enabled delivery into live acceptors — pre-filtered or
// re-filtered here by local liveness), sites whose queued local actions feed
// a live co-located automaton, and deliveries from sends already queued at
// other outside sites.  Propagation: a site that can receive an input and
// hosts a possible sender may send anywhere, enabling deliveries at every
// other outside site with live acceptors.  Site m never participates — its
// steps are exactly the ample set the paths exclude.
func (r *reduceInfo) inputCapFix(sys *ioa.System, sc *ampleScratch, m int, seed uint64) {
	n := r.n
	for k := 0; k < n; k++ {
		sc.inputCap[k] = false
		if k == m {
			continue
		}
		if seed&(1<<uint(k)) != 0 && !r.allQuiescent(sys, r.localAutos[k]) {
			sc.inputCap[k] = true
			continue
		}
		if sc.pendFeed[k] {
			sc.inputCap[k] = true
		}
	}
	for k := 0; k < n; k++ {
		if k == m {
			continue
		}
		mask := sc.pendSend[k]
		for j := 0; j < n; j++ {
			if j == m || j == k || sc.inputCap[j] || mask&(1<<uint(j)) == 0 {
				continue
			}
			if !r.acceptorsQuiescent(sys, j) {
				sc.inputCap[j] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for k := 0; k < n; k++ {
			if k == m || !sc.inputCap[k] || !sc.canSend[k] {
				continue
			}
			for j := 0; j < n; j++ {
				if j == m || j == k || sc.inputCap[j] {
					continue
				}
				if !r.acceptorsQuiescent(sys, j) {
					sc.inputCap[j] = true
					changed = true
				}
			}
		}
	}
}

// taskCycleNodes returns the IDs of every node lying on a directed cycle of
// task edges in the renumbered tables (FD edges strictly increase the fd tag
// and cannot close a cycle, so they are skipped).  Used by the engine's
// cycle proviso: a reduced node on such a cycle could defer an enabled step
// forever, so it is forced to full expansion.  Iterative Tarjan SCC; nodes
// in nontrivial SCCs, plus self-loops, are reported.
func (e *Explorer) taskCycleNodes() []NodeID {
	n := len(e.fdIdx)
	if n == 0 {
		return nil
	}
	index := make([]int32, n) // 0 = unvisited, else order+1
	low := make([]int32, n)
	onStack := make([]bool, n)
	stack := make([]int32, 0, 1024)
	type frame struct {
		v  int32
		ei int64 // next edge offset within [estart[v], estart[v+1])
	}
	frames := make([]frame, 0, 1024)
	var out []NodeID
	next := int32(0)

	for s := 0; s < n; s++ {
		if index[s] != 0 {
			continue
		}
		frames = append(frames[:0], frame{v: int32(s), ei: e.estart[s]})
		next++
		index[s] = next
		low[s] = next
		stack = append(stack, int32(s))
		onStack[s] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			advanced := false
			for f.ei < e.estart[v+1] {
				ed := e.edges[f.ei]
				f.ei++
				if ed.Label == LabelFD {
					continue
				}
				w := int32(ed.To)
				if index[w] == 0 {
					next++
					index[w] = next
					low[w] = next
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, ei: e.estart[w]})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is complete: pop its SCC if it is a root.
			if low[v] == index[v] {
				// Collect the SCC; report members iff it is nontrivial or v
				// has a task self-loop.
				sccStart := len(stack)
				for sccStart > 0 && stack[sccStart-1] != v {
					sccStart--
				}
				sccStart-- // include v itself
				members := stack[sccStart:]
				report := len(members) > 1
				if !report {
					for ei := e.estart[v]; ei < e.estart[v+1]; ei++ {
						if e.edges[ei].Label != LabelFD && int32(e.edges[ei].To) == v {
							report = true
							break
						}
					}
				}
				for _, w := range members {
					onStack[w] = false
					if report {
						out = append(out, NodeID(w))
					}
				}
				stack = stack[:sccStart]
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return out
}
