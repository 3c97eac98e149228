package valence

import (
	"bytes"
	"fmt"

	"repro/internal/ioa"
)

// ExePath reconstructs one finite execution realizing node id: the action
// sequence along a breadth-first walk from the root (an exe(N) in the sense
// of Proposition 29, modulo the quotient's choice among the walks that Lemma
// 33 proves interchangeable).  Call after Explore.
func (e *Explorer) ExePath(id NodeID) []ioa.Action {
	type via struct {
		from NodeID
		act  ioa.Action
	}
	parent := map[NodeID]via{e.Root(): {from: -1}}
	queue := []NodeID{e.Root()}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == id {
			break
		}
		for _, ed := range e.Edges(cur) {
			if _, seen := parent[ed.To]; !seen {
				parent[ed.To] = via{from: cur, act: ed.Act}
				queue = append(queue, ed.To)
			}
		}
	}
	if _, ok := parent[id]; !ok {
		return nil
	}
	var rev []ioa.Action
	for cur := id; cur != e.Root(); cur = parent[cur].from {
		rev = append(rev, parent[cur].act)
	}
	out := make([]ioa.Action, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// EqualToDepth verifies Theorem 41 executably: the explored graphs of two
// configurations (same system, different tD) agree on every walk of at most
// depth edges from the root — same edge labels, same action tags, same
// successor state encodings.  Both explorers must be Explored.  maxPairs
// caps the lockstep traversal (0 = 1e6).
func EqualToDepth(e1, e2 *Explorer, depth int, maxPairs int) error {
	if maxPairs <= 0 {
		maxPairs = 1_000_000
	}
	if len(e1.tasks) != len(e2.tasks) {
		return fmt.Errorf("valence: systems have different task lists (%d vs %d)", len(e1.tasks), len(e2.tasks))
	}
	type pair struct {
		a, b NodeID
		d    int
	}
	seen := make(map[[2]NodeID]bool)
	queue := []pair{{e1.Root(), e2.Root(), 0}}
	for len(queue) > 0 {
		if len(seen) > maxPairs {
			return fmt.Errorf("valence: pair cap %d exceeded", maxPairs)
		}
		p := queue[0]
		queue = queue[1:]
		if seen[[2]NodeID{p.a, p.b}] {
			continue
		}
		seen[[2]NodeID{p.a, p.b}] = true

		ea, eb := e1.encs[p.a], e2.encs[p.b]
		if !bytes.Equal(ea, eb) {
			return fmt.Errorf("valence: states diverge at depth %d:\n  %q\n  %q", p.d, ea, eb)
		}
		if p.d >= depth {
			continue
		}
		// Compare outgoing edges label by label, in each tree's edge order,
		// so the difference reported is a function of the two graphs.
		ma, mb := e1.Edges(p.a), e2.Edges(p.b)
		for _, ra := range ma {
			rb, ok := edgeByLabel(mb, ra.Label)
			if !ok {
				return fmt.Errorf("valence: depth %d: label %v enabled only in the first tree (action %v)", p.d, ra.Label, ra.Act)
			}
			if ra.Act != rb.Act {
				return fmt.Errorf("valence: depth %d: label %v has actions %v vs %v", p.d, ra.Label, ra.Act, rb.Act)
			}
			queue = append(queue, pair{ra.To, rb.To, p.d + 1})
		}
		for _, rb := range mb {
			if _, ok := edgeByLabel(ma, rb.Label); !ok {
				return fmt.Errorf("valence: depth %d: label %v enabled only in the second tree (action %v)", p.d, rb.Label, rb.Act)
			}
		}
	}
	return nil
}

// edgeByLabel returns the edge of edges labeled l; a node has at most one.
func edgeByLabel(edges []Edge, l Label) (Edge, bool) {
	for _, ed := range edges {
		if ed.Label == l {
			return ed, true
		}
	}
	return Edge{}, false
}
