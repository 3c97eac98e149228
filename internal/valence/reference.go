package valence

import (
	"bytes"
	"errors"

	"repro/internal/ioa"
)

// ExploreReference explores cfg's unreduced graph with the reference
// explorer and computes its valences.  The reference shares no expansion,
// memo or fixpoint code with the engine Explore runs: a single-threaded BFS
// clones the full System for every edge, re-encodes it from scratch and
// looks it up in a map from state hash to NodeIDs, and worklists solve the
// two valence fixpoints.  Its tables are the ones the engine must reproduce
// byte for byte at every worker count; oracle.DiffExplorers and this
// package's tests diff the two.  It is not a production path: it honours
// MaxNodes (failing with *ErrStateSpaceCap) but ignores Workers, Progress
// and Telemetry, and it rejects Reduce, whose graphs only the engine builds.
func ExploreReference(cfg Config) (*Explorer, error) {
	if cfg.Reduce {
		return nil, errors.New("valence: the reference explorer does not reduce")
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.exploreSerial(); err != nil {
		return nil, err
	}
	e.done = true
	r := e.buildReverse()
	e.propagateFuture(r)
	e.propagatePast(r)
	return e, nil
}

// serialState is the scratch of the reference explorer.
type serialState struct {
	index map[uint64][]NodeID // state hash -> candidate nodes (collision list)
	pend  []*ioa.System       // per-node snapshot, retained until expanded
	buf   []byte              // encoding scratch
}

func (e *Explorer) exploreSerial() error {
	st := &serialState{index: make(map[uint64][]NodeID, 1024)}
	root := e.rootSys.CloneBare()
	st.buf = root.AppendEncode(st.buf[:0])
	e.addNodeSerial(st, root, 0, stateHash(st.buf, 0))
	for next := 0; next < len(e.fdIdx); next++ {
		e.estart = append(e.estart, int64(len(e.edges)))
		sys := st.pend[next]
		st.pend[next] = nil
		fd := int(e.fdIdx[next])
		// FD edge: the head of the remaining tD, if any (Section 8.2).
		if fd < len(e.cfg.TD) {
			act := e.cfg.TD[fd]
			child := sys.CloneBare()
			child.Apply(-1, act)
			if err := e.linkSerial(st, LabelFD, act, child, fd+1); err != nil {
				return err
			}
		}
		// Task edges.
		for li, tr := range e.tasks {
			act, ok := sys.Enabled(tr)
			if !ok {
				continue // ⊥ edge: self-loop in the quotient, omitted
			}
			child := sys.CloneBare()
			child.Apply(tr.Auto, act)
			if err := e.linkSerial(st, Label(li), act, child, fd); err != nil {
				return err
			}
		}
	}
	e.estart = append(e.estart, int64(len(e.edges)))
	return nil
}

// linkSerial records an edge to the node for (child state, fd), creating and
// enqueueing the child if its key is new.  The cap is checked here, at node
// creation.
func (e *Explorer) linkSerial(st *serialState, l Label, act ioa.Action, child *ioa.System, fd int) error {
	st.buf = child.AppendEncode(st.buf[:0])
	h := stateHash(st.buf, fd)
	for _, id := range st.index[h] {
		if int(e.fdIdx[id]) == fd && bytes.Equal(e.encs[id], st.buf) {
			e.edges = append(e.edges, Edge{Label: l, Act: act, To: id})
			return nil
		}
	}
	if len(e.fdIdx) >= e.cfg.maxNodes() {
		return &ErrStateSpaceCap{Cap: e.cfg.maxNodes(), Nodes: len(e.fdIdx)}
	}
	to := e.addNodeSerial(st, child, fd, h)
	e.edges = append(e.edges, Edge{Label: l, Act: act, To: to})
	return nil
}

// addNodeSerial interns a copy of st.buf as a new node's encoding and
// registers the node under hash h.
func (e *Explorer) addNodeSerial(st *serialState, sys *ioa.System, fd int, h uint64) NodeID {
	id := NodeID(len(e.fdIdx))
	e.fdIdx = append(e.fdIdx, int32(fd))
	e.mask = append(e.mask, 0)
	e.encs = append(e.encs, bytes.Clone(st.buf))
	st.pend = append(st.pend, sys)
	st.index[h] = append(st.index[h], id)
	return id
}

// propagateFuture computes future-reachable decisions by backward fixpoint:
// R(N) = ⋃ over edges N→M of decideBit(edge) ∪ R(M).
func (e *Explorer) propagateFuture(r *reverse) {
	n := len(e.fdIdx)
	work := make([]NodeID, 0, n)
	inWork := make([]bool, n)
	// Seed: nodes with outgoing decide edges.
	for i := 0; i < n; i++ {
		var m uint8
		for k := e.estart[i]; k < e.estart[i+1]; k++ {
			m |= r.ebit[k]
		}
		if m != 0 {
			e.mask[i] = m
			work = append(work, NodeID(i))
			inWork[i] = true
		}
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[id] = false
		m := e.mask[id]
		for k := r.start[id]; k < r.start[id+1]; k++ {
			p := r.pred[k]
			if e.mask[p]|m != e.mask[p] {
				e.mask[p] |= m
				if !inWork[p] {
					work = append(work, p)
					inWork[p] = true
				}
			}
		}
	}
}

// propagatePast folds decision events of incoming walks forward:
// past(child) ⊇ past(parent) ∪ decideBit(edge).
func (e *Explorer) propagatePast(r *reverse) {
	n := len(e.fdIdx)
	past := make([]uint8, n)
	// Every node must be processed at least once: an edge's decide bit
	// contributes to the child even when the parent's own past is empty.
	work := make([]NodeID, n)
	inWork := make([]bool, n)
	for i := range work {
		work[i] = NodeID(i)
		inWork[i] = true
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[id] = false
		for k := e.estart[id]; k < e.estart[id+1]; k++ {
			m := past[id] | r.ebit[k]
			to := e.edges[k].To
			if past[to]|m != past[to] {
				past[to] |= m
				if !inWork[to] {
					work = append(work, to)
					inWork[to] = true
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		e.mask[i] |= past[i]
	}
}
