package valence

import (
	"bytes"
	"context"
	"runtime"
	rtrace "runtime/trace"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ioa"
	"repro/internal/telemetry"
)

// The exploration engine, at every worker count.
//
// Workers drain per-worker deques (LIFO locally, stealing from the head of
// a victim when empty), expand nodes, and memoize children in a sharded
// index keyed by the collision-checked state hash.  Discovery order is
// scheduling-dependent, so provisional nodes carry no IDs at all; once the
// frontier drains, a serial-BFS renumbering pass walks the recorded edges —
// whose per-node order (FD first, then tasks by ascending label) is
// deterministic — and assigns final NodeIDs in exactly the order the
// reference explorer's BFS creates them.  The flattened tables are therefore
// byte-identical to ExploreReference's at any worker count.
//
// Unlike the reference, the engine does not clone the full system per edge.
// Two structural savings make it cheaper per node even at one worker:
//
//   - Delta encoding: a child's state encoding is the parent's encoding
//     with only the *touched* component segments replaced.  An Apply
//     mutates exactly the owner (Fire) and the accepting delivery
//     candidates (Input) — nothing else — so the child encoding is
//     assembled by cloning those few automata, firing the clones, and
//     splicing their fresh encodings between the parent's untouched
//     segment bytes.  Duplicate children (the common case: the memo hit
//     rate is edges/nodes ≈ 3–4) cost a couple of automaton clones
//     instead of a full System clone + full re-encode.
//
//   - Deferred derivation: a new child enqueues only a derivation recipe
//     (parent node, edge action, owner).  Its System is materialized
//     lazily — one CloneForApply+Apply at its own expansion — so each node
//     pays exactly one derivation in its lifetime, and the frontier holds
//     recipes instead of live Systems, collapsing the resident footprint
//     of wide frontiers.  A parent's System is retained until its own
//     expansion and all child derivations have drained (refcounted), then
//     retired to the releasing worker's free list, whose Systems the next
//     derivations are rebuilt in (CloneForApplyInto).
//
// The engine's memory is sized to its graph, not to a floor: each index
// shard interns encodings in chunks that double from 1 KiB to 1 MiB, node
// edge lists are stored at their exact size, and the reduction's proviso
// rounds renumber into the previous round's tables, so an n=2 exploration
// costs a few megabytes.  Nothing is allocated up front to hold the garbage
// collector off: a small heap makes it run more often, and each run is kept
// cheap and rare by allocating less (recycled Systems, slim nodes).
//
// Delta encoding trusts the parent's segment boundaries, which are found
// by scanning for ioa.EncSep.  A clean k-automaton encoding contains
// exactly k−1 separator bytes; if a component encoding ever contained the
// separator the count would exceed k−1, and that node's expansion falls
// back to the full clone-and-encode path (splices *into* such an encoding
// are still byte-correct — segments are only ever copied verbatim or
// replaced whole — so correctness never depends on the fallback firing).

const shardBits = 7 // 128 shards

// pnode is a provisionally discovered node: identity is the pointer until
// renumbering assigns the final NodeID.
type pnode struct {
	enc  []byte // interned encoding (chunk-stable, see shardArena)
	next *pnode // memo collision chain: the next node with the same hash

	// Creation chain, immutable once the node is published: the first
	// parent to discover the node, the edge action, and its owner.  While
	// recipe is set the node's System is not yet derived, and derives as
	// cparent.sys.CloneForApply+Apply(cowner, cact) at expansion.  A node
	// forced to re-expand by the reduction's proviso rounds re-derives its
	// System by replaying root→node applies instead (walking cparent links
	// only — never a mid-chain sys, which other workers may race on).  Nodes
	// discovered on the fallback path carry sys directly.
	cparent *pnode
	cact    ioa.Action
	cowner  int32

	fd    int32
	final int32 // final NodeID; -1 until renumbered

	// Reduction bookkeeping (meaningful only under Config.Reduce).
	pruned    int32 // steps pruned at this node's last expansion
	site      int16 // ample site chosen at this node's expansion; -1 = full
	full      bool  // last expansion covered every enabled step
	forceFull bool  // proviso rounds demand full expansion

	recipe bool // sys is still to be derived from cparent.sys

	// kids is the retain count of sys: 1 for the node's own expansion plus
	// one per child still waiting to derive from it.
	kids atomic.Int32

	sys   *ioa.System
	edges []pedge // out-edges in deterministic per-node order
}

type pedge struct {
	label Label
	act   ioa.Action
	to    *pnode
}

// Shard arena chunk sizes: a shard's first chunk is arenaMinChunk bytes and
// each later one doubles, up to arenaMaxChunk.
const (
	arenaMinChunk = 1 << 10
	arenaMaxChunk = 1 << 20
)

// shardArena interns encodings in chunks that are never reallocated, so
// stored slices stay valid as more bytes arrive (append-grow would move them
// under readers).  Chunks grow geometrically, so a shard's memory tracks
// what it stores: within a factor of two plus one chunk.  A put larger than
// the next chunk gets a chunk of its own and leaves the current one open.
type shardArena struct {
	cur  []byte
	next int // size of the next chunk; 0 before the first
}

func (a *shardArena) put(b []byte) []byte {
	if cap(a.cur)-len(a.cur) < len(b) {
		if a.next == 0 {
			a.next = arenaMinChunk
		}
		if len(b) > a.next {
			return append(make([]byte, 0, len(b)), b...)
		}
		a.cur = make([]byte, 0, a.next)
		if a.next < arenaMaxChunk {
			a.next *= 2
		}
	}
	start := len(a.cur)
	a.cur = append(a.cur, b...)
	return a.cur[start:len(a.cur):len(a.cur)]
}

// shard is one lock stripe of the concurrent memo index.
type shard struct {
	mu    sync.Mutex
	index map[uint64]*pnode // hash -> head of its collision chain
	arena shardArena
}

// wdeque is one worker's frontier deque.  The owner pushes and pops at the
// tail (LIFO keeps parent→child chains local, so a child usually derives
// while its parent's System is cache-warm); thieves take a batch from the
// head, the oldest — hence shallowest, largest-subtree — nodes.
type wdeque struct {
	mu    sync.Mutex
	items []*pnode
}

func (d *wdeque) pushBatch(ns []*pnode) {
	d.mu.Lock()
	d.items = append(d.items, ns...)
	d.mu.Unlock()
}

func (d *wdeque) popTail() *pnode {
	d.mu.Lock()
	n := len(d.items)
	if n == 0 {
		d.mu.Unlock()
		return nil
	}
	it := d.items[n-1]
	d.items[n-1] = nil
	d.items = d.items[:n-1]
	d.mu.Unlock()
	return it
}

// stealHalf moves roughly half the deque (from the head) into out and
// returns the extended slice.
func (d *wdeque) stealHalf(out []*pnode) []*pnode {
	d.mu.Lock()
	n := len(d.items)
	if n == 0 {
		d.mu.Unlock()
		return out
	}
	take := (n + 1) / 2
	out = append(out, d.items[:take]...)
	rest := copy(d.items, d.items[take:])
	for i := rest; i < n; i++ {
		d.items[i] = nil
	}
	d.items = d.items[:rest]
	d.mu.Unlock()
	return out
}

type parExplorer struct {
	e      *Explorer
	shards []shard
	deques []wdeque
	work   atomic.Int64 // nodes created but not yet expanded (termination)
	nodes  atomic.Int64
	edges  atomic.Int64
	cancel atomic.Bool

	// Reduction counters (Config.Reduce only).
	reducedN  atomic.Int64
	prunedN   atomic.Int64
	sleepN    atomic.Int64
	poisonedN atomic.Int64

	errOnce sync.Once
	err     error // published by errOnce, read after workers join

	progMu   sync.Mutex
	progNext int64

	ws    []wstate // per-worker scratch, kept across proviso rounds
	order []*pnode // renumbering order, reused across proviso rounds
}

// maxFreeSys bounds a worker's list of retired Systems.  The steady state
// recycles about one System per expansion, so a short list suffices; the
// bound keeps the retired Systems of a drained round from pinning their
// automata.
const maxFreeSys = 32

// wstate is one worker's scratch: reused buffers so the steady-state
// expansion allocates only the automaton clones the delta encoder fires and
// the derived System's own clones.
type wstate struct {
	id     int
	buf    []byte   // child encoding assembly
	segs   []int    // parent segment start offsets (k+1 entries)
	cands  []int    // DeliveryCandidates scratch
	kidsNw []*pnode // children discovered by the current expansion
	edges  []pedge  // out-edges of the current expansion
	loot   []*pnode // steal batch scratch
	amp    ampleScratch
	chain  []*pnode      // creation-chain replay scratch (re-expansion)
	free   []*ioa.System // retired Systems, refilled by CloneForApplyInto
}

func (p *parExplorer) fail(err error) {
	p.errOnce.Do(func() { p.err = err })
	p.cancel.Store(true)
}

func (e *Explorer) exploreParallel(workers int) error {
	p := &parExplorer{
		e:        e,
		shards:   make([]shard, 1<<shardBits),
		deques:   make([]wdeque, workers),
		progNext: int64(e.cfg.progressEvery()),
		ws:       make([]wstate, workers),
	}
	for i := range p.shards {
		p.shards[i].index = make(map[uint64]*pnode)
	}
	for i := range p.ws {
		p.ws[i].id = i
	}

	root := e.rootSys.CloneBare()
	buf := root.AppendEncode(nil)
	h := stateHash(buf, 0)
	sh := &p.shards[h>>(64-shardBits)]
	rn := &pnode{enc: sh.arena.put(buf), final: -1, cowner: -1, site: -1, sys: root}
	rn.kids.Store(1)
	sh.index[h] = rn
	p.nodes.Store(1)
	p.work.Store(1)
	e.cfg.Telemetry.Count(telemetry.CValenceNodes, 1) // the root; link() counts the rest
	p.deques[0].items = []*pnode{rn}

	for {
		p.runWorkers(workers)
		if p.err != nil {
			return p.err
		}
		if e.red == nil {
			break
		}
		forced, done := p.reduceAnalyze(rn)
		if done {
			break
		}
		p.queueReexpand(forced)
	}
	if e.cfg.Progress != nil {
		if !e.cfg.Progress(Progress{Nodes: p.nodes.Load(), Edges: p.edges.Load(), Done: true}) {
			return ErrCanceled
		}
	}
	e.redStats.reduced = p.reducedN.Load()
	e.redStats.pruned = p.prunedN.Load()
	e.redStats.sleep = p.sleepN.Load()
	e.redStats.poisoned = p.poisonedN.Load()
	if e.red == nil {
		e.renumber(rn, int(p.nodes.Load()), int(p.edges.Load()), nil)
	}
	return nil
}

// runWorkers drains the deques with a fresh worker pool and joins it.
func (p *parExplorer) runWorkers(workers int) {
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p.worker(id)
		}(i)
	}
	wg.Wait()
}

// reduceAnalyze runs one proviso analysis round over the drained graph: it
// renumbers (deterministic serial-BFS IDs over the current edge set), then
// collects reduced nodes that violate a proviso —
//
//	cycle proviso: a reduced node on a task-edge cycle could postpone an
//	enabled outside step forever; force it full so every cycle in the final
//	graph contains a fully expanded node (classic ignoring-problem fix);
//
//	bivalent completeness: hook-finding (Lemmas 53–58) quantifies over *all*
//	enabled steps of bivalent nodes, so every bivalent node must be fully
//	expanded; forcing them full can make new nodes bivalent, hence the
//	fixpoint loop.
//
// Cycle forcing runs to exhaustion before any valence is computed (masks on
// a cyclic reduced graph could under-approximate reachability of decides).
// When nothing is forced the tables and masks are final: done=true and the
// engine skips the usual post-exploration propagate.
func (p *parExplorer) reduceAnalyze(root *pnode) (forced []*pnode, done bool) {
	e := p.e
	e.redStats.rounds++
	e.cfg.Telemetry.Count(telemetry.CValenceReduceRounds, 1)
	order := e.renumber(root, int(p.nodes.Load()), int(p.edges.Load()), p.order)
	p.order = order
	for _, id := range e.taskCycleNodes() {
		if pn := order[id]; !pn.full && !pn.forceFull {
			pn.forceFull = true
			forced = append(forced, pn)
		}
	}
	if len(forced) > 0 {
		e.redStats.forcedCycle += len(forced)
		resetFinals(order)
		return forced, false
	}
	e.propagate()
	for id, pn := range order {
		if !pn.full && maskToValence(e.mask[id]) == ValBivalent {
			pn.forceFull = true
			forced = append(forced, pn)
		}
	}
	if len(forced) == 0 {
		e.propagated = true // masks just computed are final
		e.fullbit = make([]bool, len(order))
		for id, pn := range order {
			e.fullbit[id] = pn.full
		}
		// Sleep-set hits: a reduced child reached from a reduced parent
		// with the same ample cluster re-suppresses exactly the steps the
		// parent's sleep set suppressed (a same-site fire touches none of
		// them).  Computed here — not during expansion — so the count is a
		// function of the final graph, identical at every worker count.
		var sleep int64
		inherited := make([]bool, len(order))
		for id, pn := range order {
			if pn.full {
				continue
			}
			for k := e.estart[id]; k < e.estart[id+1]; k++ {
				to := e.edges[k].To
				tn := order[to]
				if !tn.full && tn.site == pn.site && !inherited[to] {
					inherited[to] = true
					sleep += int64(tn.pruned)
				}
			}
		}
		p.sleepN.Store(sleep)
		e.cfg.Telemetry.Count(telemetry.CValenceSleepHits, sleep)
		return nil, true
	}
	e.redStats.forcedBiv += len(forced)
	resetFinals(order)
	return forced, false
}

func resetFinals(order []*pnode) {
	for _, pn := range order {
		pn.final = -1
	}
}

// queueReexpand rewinds each forced node to unexpanded — edges cleared and
// their counts (and the node's pruned count) rolled back — and requeues it.
// The node's System is re-derived at expansion by replaying its creation
// chain from the root.
func (p *parExplorer) queueReexpand(forced []*pnode) {
	for _, pn := range forced {
		p.edges.Add(-int64(len(pn.edges)))
		pn.edges = nil
		p.prunedN.Add(-int64(pn.pruned))
		pn.pruned = 0
		p.reducedN.Add(-1)
		pn.recipe = false
		pn.sys = nil
		pn.kids.Store(1)
	}
	p.work.Add(int64(len(forced)))
	per := (len(forced) + len(p.deques) - 1) / len(p.deques)
	for i := 0; i < len(p.deques); i++ {
		lo := i * per
		if lo >= len(forced) {
			break
		}
		hi := lo + per
		if hi > len(forced) {
			hi = len(forced)
		}
		p.deques[i].pushBatch(forced[lo:hi])
	}
}

// worker drains its own deque tail-first and steals from peers when empty.
// Exploration is over when the global work count (created-but-unexpanded
// nodes) reaches zero: at that point every deque is empty and no expansion
// that could push more is in flight.  Each worker's lifetime is a
// runtime/trace region; with a telemetry registry attached it additionally
// records per-expansion spans on virtual thread id+1 and accumulates busy
// time for the utilization metric (CWorkerBusyNs / (GValenceWorkers × wall)).
func (p *parExplorer) worker(id int) {
	defer rtrace.StartRegion(context.Background(), "valence.worker").End()
	tel := p.e.cfg.Telemetry
	ws := &p.ws[id]
	idle := 0
	for {
		if p.cancel.Load() {
			return
		}
		n := p.deques[id].popTail()
		if n == nil {
			n = p.steal(ws)
		}
		if n == nil {
			if p.work.Load() == 0 {
				return
			}
			// Someone is still expanding and may publish work; back off
			// politely (poll, no condvar: the publish side is lock-light
			// and wakeups would cost more than the naps).
			if idle++; idle < 8 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		idle = 0
		if tel != nil {
			t0 := tel.Now()
			p.expand(n, ws)
			tel.Count(telemetry.CWorkerBusyNs, tel.Now()-t0)
			tel.Count(telemetry.CValenceExpansions, 1)
			tel.Span(telemetry.CatValence, "expand", t0, int32(id+1), int64(len(n.edges)))
		} else {
			p.expand(n, ws)
		}
		p.work.Add(-1)
	}
}

// steal takes a batch from the first non-empty peer deque, keeps the batch
// on the worker's own deque, and returns one node to expand.
func (p *parExplorer) steal(ws *wstate) *pnode {
	for off := 1; off < len(p.deques); off++ {
		victim := (ws.id + off) % len(p.deques)
		ws.loot = p.deques[victim].stealHalf(ws.loot[:0])
		if len(ws.loot) == 0 {
			continue
		}
		n := ws.loot[len(ws.loot)-1]
		if rest := ws.loot[:len(ws.loot)-1]; len(rest) > 0 {
			p.deques[ws.id].pushBatch(rest)
		}
		return n
	}
	return nil
}

// release drops one retain of n.sys.  The last drop retires the System to
// the releasing worker's free list: no node or System references it any more
// (children share its automata, never the System itself), so its buffers
// are free for the worker's next derivation.  The atomic decrement that
// reaches zero orders every other worker's reads of it before the reuse.
func (p *parExplorer) release(n *pnode, ws *wstate) {
	if n.kids.Add(-1) == 0 {
		if len(ws.free) < maxFreeSys {
			ws.free = append(ws.free, n.sys)
		}
		n.sys = nil
	}
}

// deriveSys materializes n's System.  Delta-discovered nodes replay their
// recipe against the parent's retained System: a CloneForApply shares every
// automaton the recipe's event doesn't touch with the parent — systems form
// a persistent structure along tree edges, and each is frozen once derived
// (expansion only reads), which is exactly CloneForApply's soundness
// condition.  The copy is built in a retired System's buffers when the
// worker has one.  The root and fallback-path nodes already carry a System.
func (p *parExplorer) deriveSys(n *pnode, ws *wstate) *ioa.System {
	if n.sys != nil {
		return n.sys
	}
	if !n.recipe {
		return p.replayChain(n, ws)
	}
	owner := int(n.cowner)
	psys := n.cparent.sys
	var dst *ioa.System
	if k := len(ws.free) - 1; k >= 0 {
		dst = ws.free[k]
		ws.free[k] = nil
		ws.free = ws.free[:k]
	}
	ws.cands = psys.DeliveryCandidates(n.cact, ws.cands)
	sys := psys.CloneForApplyInto(dst, owner, n.cact, ws.cands)
	sys.Apply(owner, n.cact)
	n.recipe = false
	p.release(n.cparent, ws)
	n.sys = sys
	return sys
}

// replayChain re-derives the System of a node rewound for re-expansion by
// the proviso rounds: replay the creation chain's applies from a fresh root
// clone.  Only the immutable chain fields (cparent/cact/cowner) are read —
// a mid-chain ancestor's sys may be owned by another worker.
func (p *parExplorer) replayChain(n *pnode, ws *wstate) *ioa.System {
	ws.chain = ws.chain[:0]
	for m := n; m.cparent != nil; m = m.cparent {
		ws.chain = append(ws.chain, m)
	}
	sys := p.e.rootSys.CloneBare()
	for i := len(ws.chain) - 1; i >= 0; i-- {
		sys.Apply(int(ws.chain[i].cowner), ws.chain[i].cact)
	}
	n.sys = sys
	return sys
}

// splitSegs records the k+1 segment start offsets of enc into ws.segs and
// reports whether enc splits cleanly into exactly k automaton segments
// (segment i is enc[segs[i] : segs[i+1]-1], the last runs to len(enc)).
func splitSegs(enc []byte, k int, segs []int) ([]int, bool) {
	segs = append(segs[:0], 0)
	for off := 0; ; {
		i := bytes.IndexByte(enc[off:], ioa.EncSep)
		if i < 0 {
			break
		}
		off += i + 1
		segs = append(segs, off)
	}
	segs = append(segs, len(enc)+1)
	return segs, len(segs) == k+1
}

// expand mirrors the reference's expansion exactly: FD edge first, then tasks
// in label order; ⊥ edges omitted.  Under reduction only the selected ample
// cluster is expanded.  The node's edges are stored at their exact size, and
// its children are published to the local deque in one batch after the
// node's System is no longer being read.
func (p *parExplorer) expand(n *pnode, ws *wstate) {
	sys := p.deriveSys(n, ws)
	if p.cancel.Load() {
		p.release(n, ws)
		return
	}
	var delta bool
	ws.segs, delta = splitSegs(n.enc, len(sys.Automata()), ws.segs)
	ws.kidsNw = ws.kidsNw[:0]
	ws.edges = ws.edges[:0]
	fd := int(n.fd)
	sel, verdict := ampleSel{}, ampleFull
	if red := p.e.red; red != nil && !n.forceFull {
		sel, verdict = red.selectAmple(sys, fd, &ws.amp)
		if verdict == amplePoisoned {
			p.poisonedN.Add(1)
		}
	}
	if verdict == ampleReduced {
		p.expandAmple(n, sys, ws, delta, fd, sel)
	} else {
		p.expandFull(n, sys, ws, delta, fd)
	}
	n.edges = append(make([]pedge, 0, len(ws.edges)), ws.edges...)
	p.release(n, ws)
	if len(ws.kidsNw) > 0 {
		p.deques[ws.id].pushBatch(ws.kidsNw)
		if tel := p.e.cfg.Telemetry; tel != nil {
			f := p.work.Load()
			tel.SetGauge(telemetry.GValenceFrontier, f)
			tel.GaugeMax(telemetry.GValenceFrontierPeak, f)
		}
	}
}

// expandFull expands every enabled step.
func (p *parExplorer) expandFull(n *pnode, sys *ioa.System, ws *wstate, delta bool, fd int) {
	n.full = true
	n.site = -1
	if fd < len(p.e.cfg.TD) {
		act := p.e.cfg.TD[fd]
		p.edge(n, sys, ws, delta, LabelFD, -1, act, fd+1)
	}
	for li, tr := range p.e.tasks {
		if p.cancel.Load() {
			break
		}
		act, ok := sys.Enabled(tr)
		if !ok {
			continue
		}
		p.edge(n, sys, ws, delta, Label(li), tr.Auto, act, fd)
	}
}

// expandAmple expands only the selected ample cluster: the FD edge when the
// next TD event occurs at the cluster's site, then the cluster's tasks in
// ascending label order — a deterministic per-node order, so renumbering
// stays byte-identical at any worker count.  The pruned steps form the
// node's sleep set; children that keep the parent's cluster inherit it
// wholesale (every step suppressed here is the same step, untouched by a
// same-site fire, that their own selection suppresses again) — counted as
// sleep-set hits by the final analysis pass, where the parent→child edges
// are known deterministically.
func (p *parExplorer) expandAmple(n *pnode, sys *ioa.System, ws *wstate, delta bool, fd int, sel ampleSel) {
	n.full = false
	n.site = sel.site
	if sel.fdEdge {
		act := p.e.cfg.TD[fd]
		p.edge(n, sys, ws, delta, LabelFD, -1, act, fd+1)
	}
	for _, ti := range sel.tasks {
		if p.cancel.Load() {
			break
		}
		p.edge(n, sys, ws, delta, Label(ti), p.e.tasks[ti].Auto, sys.ReadyAction(int(ti)), fd)
	}
	n.pruned = sel.pruned
	p.prunedN.Add(int64(sel.pruned))
	p.reducedN.Add(1)
	tel := p.e.cfg.Telemetry
	tel.Count(telemetry.CValencePruned, int64(sel.pruned))
	tel.Observe(telemetry.HAmpleSize, int64(sel.total-sel.pruned))
}

// edge computes the child encoding for one out-edge — via the delta splice
// when the parent's segmentation is trusted, else by full clone — and links
// it.  New delta children are recipes; new fallback children carry the
// cloned System directly.
func (p *parExplorer) edge(n *pnode, sys *ioa.System, ws *wstate, delta bool, l Label, owner int, act ioa.Action, fd int) {
	if delta {
		ws.buf = p.deltaEncode(n.enc, sys, ws, owner, act)
		p.link(n, ws, l, act, int32(owner), fd, nil)
		return
	}
	child := sys.CloneBare()
	child.Apply(owner, act)
	ws.buf = child.AppendEncode(ws.buf[:0])
	p.link(n, ws, l, act, int32(owner), fd, child)
}

// deltaEncode assembles the child encoding for firing act (owner fires,
// accepting delivery candidates consume) by splicing re-encoded touched
// segments into the parent's untouched bytes.  Touched automata are cloned
// and fired individually; applyWith mutates nothing else, so every other
// segment is copied verbatim from the parent.
func (p *parExplorer) deltaEncode(penc []byte, sys *ioa.System, ws *wstate, owner int, act ioa.Action) []byte {
	autos := sys.Automata()
	ws.cands = sys.DeliveryCandidates(act, ws.cands)
	buf := ws.buf[:0]
	ci := 0
	for si, k := 0, len(autos); si < k; si++ {
		if si > 0 {
			buf = append(buf, ioa.EncSep)
		}
		inCands := false
		for ci < len(ws.cands) && ws.cands[ci] < si {
			ci++
		}
		if ci < len(ws.cands) && ws.cands[ci] == si {
			inCands = true
			ci++
		}
		switch {
		case si == owner:
			buf = appendPostFire(buf, autos[si], act)
		case inCands && autos[si].Accepts(act):
			buf = appendPostInput(buf, autos[si], act)
		default:
			buf = append(buf, penc[ws.segs[si]:ws.segs[si+1]-1]...)
		}
	}
	return buf
}

// appendPostFire appends a's post-Fire(act) encoding: directly when the
// automaton can render it (queue-pop fires never move the hosted machine),
// else by firing a throwaway clone.
func appendPostFire(dst []byte, a ioa.Automaton, act ioa.Action) []byte {
	if pf, ok := a.(ioa.PostFireEncoder); ok {
		if out, ok := pf.AppendEncodePostFire(act, dst); ok {
			return out
		}
	}
	c := a.Clone()
	c.Fire(act)
	return c.AppendEncode(dst)
}

// appendPostInput is the input-side analogue of appendPostFire.
func appendPostInput(dst []byte, a ioa.Automaton, act ioa.Action) []byte {
	if pi, ok := a.(ioa.PostInputEncoder); ok {
		if out, ok := pi.AppendEncodePostInput(act, dst); ok {
			return out
		}
	}
	c := a.Clone()
	c.Input(act)
	return c.AppendEncode(dst)
}

// link records an edge from n to the node for (ws.buf, fd) in ws.edges,
// creating the child if its key is new.  childSys is nil on the delta path
// (the new child stores a derivation recipe and retains n.sys) and the
// materialized System on the fallback path.
func (p *parExplorer) link(n *pnode, ws *wstate, l Label, act ioa.Action, owner int32, fd int, childSys *ioa.System) {
	buf := ws.buf
	h := stateHash(buf, fd)
	sh := &p.shards[h>>(64-shardBits)]
	sh.mu.Lock()
	head := sh.index[h]
	to := head
	for ; to != nil; to = to.next {
		if int(to.fd) == fd && bytes.Equal(to.enc, buf) {
			break
		}
	}
	if to == nil {
		created := p.nodes.Add(1)
		if created > int64(p.e.cfg.maxNodes()) {
			sh.mu.Unlock()
			p.fail(&ErrStateSpaceCap{Cap: p.e.cfg.maxNodes(), Nodes: int(created - 1)})
			return
		}
		to = &pnode{
			enc: sh.arena.put(buf), next: head,
			cparent: n, cact: act, cowner: owner,
			fd: int32(fd), final: -1, site: -1,
			recipe: childSys == nil, sys: childSys,
		}
		to.kids.Store(1)
		if childSys == nil {
			n.kids.Add(1)
		}
		sh.index[h] = to
		sh.mu.Unlock()
		p.work.Add(1)
		ws.kidsNw = append(ws.kidsNw, to)
		p.e.cfg.Telemetry.Count(telemetry.CValenceNodes, 1)
		p.maybeProgress(created)
	} else {
		sh.mu.Unlock()
	}
	ws.edges = append(ws.edges, pedge{label: l, act: act, to: to})
	p.edges.Add(1)
	p.e.cfg.Telemetry.Count(telemetry.CValenceEdges, 1)
}

// maybeProgress serializes Progress callbacks across workers; a false return
// cancels the whole exploration.
func (p *parExplorer) maybeProgress(created int64) {
	if p.e.cfg.Progress == nil {
		return
	}
	p.progMu.Lock()
	if created < p.progNext {
		p.progMu.Unlock()
		return
	}
	p.progNext = created + int64(p.e.cfg.progressEvery())
	ok := p.e.cfg.Progress(Progress{Nodes: created, Edges: p.edges.Load()})
	p.progMu.Unlock()
	if !ok {
		p.fail(ErrCanceled)
	}
}

// renumber assigns final NodeIDs by serial BFS over the recorded edges and
// flattens the provisional graph into the explorer's SoA tables.  Because
// each node's edge list is in deterministic order and the reference explorer
// assigns IDs in exactly first-touch BFS order, the result is identical to
// the reference's.  The BFS order is returned so the reduction's
// analysis rounds can map NodeIDs back to pnodes (and reset them); callers
// re-renumbering must resetFinals first.  The order slice and the tables
// of a previous round are reused where their capacity suffices (pass the
// previous order, or nil).  Under reduction they are allocated with slack:
// the next proviso round re-expands a few forced nodes and renumbers a
// slightly larger graph into the same tables.
func (e *Explorer) renumber(root *pnode, nNodes, nEdges int, order []*pnode) []*pnode {
	slack := e.red != nil
	order = append(resize(order, nNodes, slack)[:0], root)
	root.final = 0
	for i := 0; i < len(order); i++ {
		for _, ed := range order[i].edges {
			if ed.to.final < 0 {
				ed.to.final = int32(len(order))
				order = append(order, ed.to)
			}
		}
	}
	n := len(order)
	e.fdIdx = resize(e.fdIdx, n, slack)
	e.mask = resize(e.mask, n, slack)
	clear(e.mask)
	e.estart = resize(e.estart, n+1, slack)
	e.edges = resize(e.edges, nEdges, slack)[:0]
	// Adopt the interned encodings where they already live (the shard
	// arena chunks): one slice header per node, zero byte traffic.
	e.encs = resize(e.encs, n, slack)
	for i, pn := range order {
		e.fdIdx[i] = pn.fd
		e.encs[i] = pn.enc
		e.estart[i] = int64(len(e.edges))
		for _, ed := range pn.edges {
			e.edges = append(e.edges, Edge{Label: ed.label, Act: ed.act, To: NodeID(ed.to.final)})
		}
	}
	e.estart[n] = int64(len(e.edges))
	return order
}

// resize returns s resliced to length n, reallocated when its capacity is
// short.  Elements below n keep stale values; callers overwrite or clear.
// With slack, a reallocation leaves an eighth of headroom.
func resize[T any](s []T, n int, slack bool) []T {
	if cap(s) >= n {
		return s[:n]
	}
	c := n
	if slack {
		c += n / 8
	}
	return make([]T, n, c)
}

// Round-based valence fixpoints.
//
// Both propagations are monotone over the mask lattice, so the least
// fixpoint is unique and any evaluation order converges to it — the
// round-based solvers below therefore produce exactly the reference
// worklists' masks.  Each round partitions nodes into contiguous ranges; a node's mask
// is written only by the worker owning its range (single-writer), and
// cross-range reads go through atomics, so the solver is race-free.

// runRounds drives per-range sweeps until a full round changes nothing.
// Each round is one CFixpointRounds count and one valence-category span
// (named by the caller, arg = round number) in tel.
func runRounds(n, workers int, tel *telemetry.Registry, name string, sweep func(lo, hi int) bool) {
	chunk := (n + workers - 1) / workers
	round := int64(0)
	for {
		round++
		t0 := tel.Now()
		var changed atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			if lo >= n {
				break
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				if sweep(lo, hi) {
					changed.Store(true)
				}
			}(lo, hi)
		}
		wg.Wait()
		tel.Count(telemetry.CFixpointRounds, 1)
		tel.Span(telemetry.CatValence, name, t0, 0, round)
		if !changed.Load() {
			return
		}
	}
}

func (e *Explorer) propagateFutureParallel(r *reverse, workers int) {
	n := len(e.fdIdx)
	masks := make([]uint32, n)
	// Sweep descending: successors typically carry higher IDs, so within a
	// round most reads already see this round's values and long forward
	// chains collapse into few rounds.
	runRounds(n, workers, e.cfg.Telemetry, "fixpoint-future", func(lo, hi int) bool {
		changed := false
		for id := hi - 1; id >= lo; id-- {
			m := atomic.LoadUint32(&masks[id])
			nm := m
			for k := e.estart[id]; k < e.estart[id+1]; k++ {
				nm |= uint32(r.ebit[k]) | atomic.LoadUint32(&masks[e.edges[k].To])
			}
			if nm != m {
				atomic.StoreUint32(&masks[id], nm)
				changed = true
			}
		}
		return changed
	})
	for i := 0; i < n; i++ {
		e.mask[i] = uint8(masks[i])
	}
}

func (e *Explorer) propagatePastParallel(r *reverse, workers int) {
	n := len(e.fdIdx)
	past := make([]uint32, n)
	// Sweep ascending over the reverse CSR: predecessors typically carry
	// lower IDs, the mirror argument of the future sweep.
	runRounds(n, workers, e.cfg.Telemetry, "fixpoint-past", func(lo, hi int) bool {
		changed := false
		for id := lo; id < hi; id++ {
			m := atomic.LoadUint32(&past[id])
			nm := m
			for k := r.start[id]; k < r.start[id+1]; k++ {
				nm |= uint32(r.bit[k]) | atomic.LoadUint32(&past[r.pred[k]])
			}
			if nm != m {
				atomic.StoreUint32(&past[id], nm)
				changed = true
			}
		}
		return changed
	})
	for i := 0; i < n; i++ {
		e.mask[i] |= uint8(past[i])
	}
}
