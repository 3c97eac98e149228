package valence

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// Hook is the Section-9.6.1 structure: a bivalent node N with labels l and r
// such that N's l-child is v-valent and the l-child of N's r-child is
// (1−v)-valent.  The actions of the two edges occur at a single location —
// the hook's critical location — which Theorem 59 proves live in tD.
type Hook struct {
	Node     NodeID
	L, R     Label
	LAct     ioa.Action // action tag of N's l-edge
	RAct     ioa.Action // action tag of N's r-edge
	V        Valence    // valence of N's l-child
	Critical ioa.Loc    // location of both action tags (Lemma 57)
}

// String implements fmt.Stringer.
func (h Hook) String() string {
	return fmt.Sprintf("hook(node=%d, l=%v via %v, r=%v via %v, v=%v, critical=%v)",
		h.Node, h.L, h.LAct, h.R, h.RAct, h.V, h.Critical)
}

// childVia returns the target of node id's edge labeled l, if present.
func (e *Explorer) childVia(id NodeID, l Label) (NodeID, ioa.Action, bool) {
	for _, ed := range e.Edges(id) {
		if ed.Label == l {
			return ed.To, ed.Act, true
		}
	}
	return 0, ioa.Action{}, false
}

// FindHooks scans the explored graph for hooks, up to the given count
// (0 = all).  Per Lemma 55 at least one exists whenever the root is
// bivalent and tD crashes at most f locations.  The scan parallelizes over
// node ranges when Config.Workers allows, but the returned slice is always
// the exact prefix the serial node-order scan would produce.
func (e *Explorer) FindHooks(limit int) []Hook {
	n := len(e.fdIdx)
	w := e.cfg.workers()
	if w <= 1 || n < 4096 {
		return e.findHooksRange(0, n, limit)
	}
	// Chunk the ID space; process chunks in ascending batches so we can
	// stop as soon as the completed prefix satisfies the limit, and
	// concatenate in chunk order to preserve the serial output exactly.
	numChunks := w * 4
	chunk := (n + numChunks - 1) / numChunks
	results := make([][]Hook, numChunks)
	processed := 0
	for batch := 0; batch*w < numChunks; batch++ {
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			ci := batch*w + i
			if ci >= numChunks {
				break
			}
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				lo := ci * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				if lo < hi {
					results[ci] = e.findHooksRange(lo, hi, limit)
				}
			}(ci)
		}
		wg.Wait()
		processed = batch*w + w
		if processed > numChunks {
			processed = numChunks
		}
		if limit > 0 {
			total := 0
			for ci := 0; ci < processed; ci++ {
				total += len(results[ci])
			}
			if total >= limit {
				break
			}
		}
	}
	var out []Hook
	for ci := 0; ci < processed; ci++ {
		out = append(out, results[ci]...)
		if limit > 0 && len(out) >= limit {
			out = out[:limit]
			break
		}
	}
	return out
}

// findHooksRange is the serial hook scan over node IDs [lo, hi).
func (e *Explorer) findHooksRange(lo, hi, limit int) []Hook {
	var out []Hook
	for id := lo; id < hi; id++ {
		n := NodeID(id)
		if e.Valence(n) != ValBivalent {
			continue
		}
		nEdges := e.Edges(n)
		for _, le := range nEdges {
			lv := e.Valence(le.To)
			if lv != ValZero && lv != ValOne {
				continue
			}
			for _, re := range nEdges {
				if re.Label == le.Label {
					continue
				}
				// Lemma 56 requires N's own l- and r-edges to be non-⊥,
				// but the l-edge *of N's r-child* may be ⊥ (e.g. a
				// propose task disabled by the r-edge's propose): a ⊥
				// edge is a self-loop, so the grandchild is the r-child
				// itself.
				rl, _, ok := e.childVia(re.To, le.Label)
				if !ok {
					rl = re.To
				}
				rlv := e.Valence(rl)
				if (lv == ValZero && rlv == ValOne) || (lv == ValOne && rlv == ValZero) {
					h := Hook{
						Node: n, L: le.Label, R: re.Label,
						LAct: le.Act, RAct: re.Act,
						V: lv, Critical: le.Act.Loc,
					}
					out = append(out, h)
					if limit > 0 && len(out) >= limit {
						return out
					}
				}
			}
		}
	}
	return out
}

// VerifyHook checks the Theorem-59 properties of a hook against the tD the
// explorer was built with:
//
//	(1) the action tags of the l- and r-edges are not ⊥ (Lemma 56);
//	(2) both action tags occur at the same location (Lemma 57);
//	(3) that critical location is live in tD (Lemma 58).
func (e *Explorer) VerifyHook(h Hook) error {
	if h.LAct.IsZero() || h.RAct.IsZero() {
		return fmt.Errorf("valence: hook has ⊥ action tag (violates Lemma 56): %v", h)
	}
	if h.LAct.Loc != h.RAct.Loc {
		return fmt.Errorf("valence: hook edges occur at %v and %v (violates Lemma 57): %v",
			h.LAct.Loc, h.RAct.Loc, h)
	}
	if trace.Faulty(e.cfg.TD).Has(h.LAct.Loc) {
		return fmt.Errorf("valence: critical location %v is faulty in tD (violates Lemma 58): %v",
			h.LAct.Loc, h)
	}
	return nil
}

// CheckLemma52 verifies valence monotonicity on every edge of the explored
// graph: a v-valent node has only v-valent descendants (children's masks are
// subsets of their parents').
func (e *Explorer) CheckLemma52() error {
	for id := range e.fdIdx {
		m := e.mask[id]
		for _, ed := range e.Edges(NodeID(id)) {
			child := e.mask[ed.To]
			// The parent's reachable set includes the edge's own decide
			// contribution plus the child's set.
			var bit uint8
			if b, ok := decideBit(ed.Act); ok {
				bit = b
			}
			if m|child|bit != m {
				return fmt.Errorf("valence: node %d mask %b missing child %d mask %b (Lemma 52)",
					id, m, ed.To, child)
			}
		}
	}
	return nil
}

// CheckProposition50 verifies that no bivalent node is entered via a decide
// edge: once a decision value appears in exe(N), N cannot be bivalent.
func (e *Explorer) CheckProposition50() error {
	for id := range e.fdIdx {
		for _, ed := range e.Edges(NodeID(id)) {
			if _, ok := decideBit(ed.Act); !ok {
				continue
			}
			if e.Valence(ed.To) == ValBivalent {
				return fmt.Errorf("valence: bivalent node %d reached via decide edge from %d (Proposition 50)",
					ed.To, id)
			}
		}
	}
	return nil
}

// HookStats summarizes a hook collection: how many hooks pivot on each kind
// of edge (the FD edge vs process / channel / environment tasks) and the
// distribution of critical locations.  The paper's Theorem 59 says critical
// locations are live; the stats show *which* live events are decisive —
// e.g. the FD-versus-delivery races of the crash-information argument.
type HookStats struct {
	ByLabelKind map[string]int // "fd", "proc", "chan", "env"
	ByCritical  map[ioa.Loc]int
	FDInvolved  int // hooks whose l- or r-edge is the FD edge
}

// HookStats computes statistics over the given hooks.
func (e *Explorer) HookStats(hooks []Hook) HookStats {
	st := HookStats{
		ByLabelKind: make(map[string]int),
		ByCritical:  make(map[ioa.Loc]int),
	}
	kind := func(l Label) string {
		if l == LabelFD {
			return "fd"
		}
		name := e.labels[l]
		switch {
		case strings.HasPrefix(name, "chan"):
			return "chan"
		case strings.HasPrefix(name, "env"):
			return "env"
		default:
			return "proc"
		}
	}
	for _, h := range hooks {
		st.ByLabelKind[kind(h.L)]++
		st.ByLabelKind[kind(h.R)]++
		st.ByCritical[h.Critical]++
		if h.L == LabelFD || h.R == LabelFD {
			st.FDInvolved++
		}
	}
	return st
}

// BivalencePath returns a longest-effort chain of bivalent nodes from the
// root following edges to bivalent children (the adversary of the FLP
// argument).  It stops when no bivalent child exists (decision forced) or
// when it revisits a node (a bivalent cycle, meaning the adversary can delay
// decisions forever on an unfair schedule).  It reports the path length and
// whether a cycle was found.
func (e *Explorer) BivalencePath() (length int, cyclic bool) {
	seen := make(map[NodeID]bool)
	cur := e.Root()
	for {
		if e.Valence(cur) != ValBivalent {
			return length, false
		}
		if seen[cur] {
			return length, true
		}
		seen[cur] = true
		next := NodeID(-1)
		for _, ed := range e.Edges(cur) {
			if e.Valence(ed.To) == ValBivalent {
				next = ed.To
				break
			}
		}
		if next < 0 {
			return length, false
		}
		length++
		cur = next
	}
}
