package causal

import (
	"fmt"

	"repro/internal/afd"
	"repro/internal/ioa"
)

// Transition is one FD-output event that changed an observer's suspect
// set, as afd.SuspicionTracker reports it.
type Transition = afd.Transition

// Transitions folds the trace through an afd.SuspicionTracker and returns
// every suspect-set transition, in event order.  FD outputs with
// undecodable payloads are skipped (provenance only explains well-formed
// sets).
func (d *DAG) Transitions() []Transition {
	q := afd.NewSuspicionTracker()
	var out []Transition
	for _, act := range d.Events {
		if tr, ok := q.Fold(act); ok {
			out = append(out, tr)
		}
	}
	return out
}

// ChainLink is one event on a minimal explaining chain.
type ChainLink struct {
	// Event is the trace index; Action its paper-notation rendering; Loc the
	// location the event occurred at.
	Event  int     `json:"event"`
	Action string  `json:"action"`
	Loc    ioa.Loc `json:"loc"`
	// EdgeToNext names the happens-before edge kind connecting this link to
	// the next one ("" on the final link).
	EdgeToNext string `json:"edgeToNext,omitempty"`
	// EdgeVerified reports the connecting edge's diff-verification.
	EdgeVerified bool `json:"edgeVerified,omitempty"`
	// StampNs is the event's wall-clock offset (live records), else -1.
	StampNs int64 `json:"stampNs"`
}

// Explanation is the causal provenance of one suspicion change: the
// transition, the origin event the chain is traced back to, and the minimal
// (fewest-edge) happens-before chain from origin to transition.
type Explanation struct {
	Transition Transition `json:"transition"`
	// Subject is the location whose suspicion is being explained; Added
	// whether it entered (true) or left (false) the suspect set.
	Subject ioa.Loc `json:"subject"`
	Added   bool    `json:"added"`
	// Origin is the chain's first event: the subject's crash when it is in
	// the transition's causal cone (OriginIsCrash), else the cone's earliest
	// event — the information the suspicion change is rooted in.
	Origin        int  `json:"origin"`
	OriginIsCrash bool `json:"originIsCrash"`
	// Chain is the minimal happens-before path, origin first.
	Chain []ChainLink `json:"chain"`
	// ConeSize is the transition's full causal-cone cardinality.
	ConeSize int `json:"coneSize"`
}

// Explain computes the provenance of subject's membership change in the
// given transition.  The transition must come from Transitions on the same
// DAG, and subject must appear in its Added or Removed set.
func (d *DAG) Explain(tr Transition, subject ioa.Loc) (*Explanation, error) {
	added := containsLoc(tr.Added, subject)
	if !added && !containsLoc(tr.Removed, subject) {
		return nil, fmt.Errorf("causal: event %d (%v) does not change suspicion of %v",
			tr.Event, d.Events[tr.Event], subject)
	}

	// BFS backward over preds from the transition: parentEdge[v] is the edge
	// index first used to reach v, giving fewest-edge chains.
	parentEdge := map[int]int32{tr.Event: -1}
	queue := []int{tr.Event}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, ei := range d.preds[v] {
			u := d.Edges[ei].From
			if _, seen := parentEdge[u]; !seen {
				parentEdge[u] = ei
				queue = append(queue, u)
			}
		}
	}

	ex := &Explanation{
		Transition: tr,
		Subject:    subject,
		Added:      added,
		ConeSize:   len(parentEdge),
	}

	// Origin: the subject's crash if it is in the cone; otherwise the
	// earliest cone event (the suspicion is rooted in timing, not failure —
	// a mistake, or a removal learned through refutation).
	origin := -1
	earliest := tr.Event
	for v := range parentEdge {
		if v < earliest {
			earliest = v
		}
		a := d.Events[v]
		if a.Kind == ioa.KindCrash && a.Loc == subject && (origin < 0 || v < origin) {
			origin = v
		}
	}
	if origin >= 0 {
		ex.OriginIsCrash = true
	} else {
		origin = earliest
	}
	ex.Origin = origin

	// Walk parent pointers origin → transition; the path exists because
	// origin was reached by the BFS.
	var path []int32 // edge indices, transition-side first
	for v := origin; v != tr.Event; {
		ei := parentEdge[v]
		path = append(path, ei)
		v = d.Edges[ei].To
	}
	ex.Chain = make([]ChainLink, 0, len(path)+1)
	link := func(ev int) ChainLink {
		return ChainLink{
			Event:   ev,
			Action:  d.Events[ev].String(),
			Loc:     d.Events[ev].Loc,
			StampNs: d.StampNs(ev),
		}
	}
	cur := link(origin)
	for _, ei := range path {
		e := d.Edges[ei]
		cur.EdgeToNext = e.Kind.String()
		cur.EdgeVerified = e.Verified
		ex.Chain = append(ex.Chain, cur)
		cur = link(e.To)
	}
	ex.Chain = append(ex.Chain, cur)
	return ex, nil
}

func containsLoc(ls []ioa.Loc, l ioa.Loc) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}
