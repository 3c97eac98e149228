// Package causal is the happens-before and provenance engine: it
// reconstructs the causal DAG of a recorded execution — any trace.Artifact,
// whether written by the simulated chaos runner or a live stamped run — and
// answers "why does observer i suspect j?" with a minimal explaining chain
// plus detector-QoS analytics (detection time, mistake durations,
// suspicion-propagation spread).
//
// The DAG is not inferred from the event sequence alone.  Build is the
// cross-engine replay chaos.ReplayThroughSystemInstrumented runs — the
// artifact's trace re-driven through a freshly composed fast-path system
// and byte-compared — with two post-Apply observers: a stride-1 oracle with
// its channel shadow, then the DAG builder, which derives edges from the
// composition's own structure:
//
//   - program order comes from per-event action footprints
//     (ioa.System.ActionFootprint: the exact automaton set each event
//     mutates), so two events are ordered iff they touched a common
//     automaton — the executable form of the independence relation the
//     valence reduction uses;
//   - message edges pair each delivery with the send the oracle's channel
//     shadow dequeued it from (oracle.Oracle.PairedSend): the one
//     independent FIFO mirror, which re-derives every lossy-link decision
//     (system.NetSpec.Outcome), so a dropped send pairs with nothing and a
//     duplicated one pairs twice;
//   - crash and FD-output events contribute edges classified by their kind,
//     so explanations can say "because of crash_j" rather than "because of
//     event 12".
//
// Every derivation is diff-verified: the oracle checks the replaying
// system's ready-set, delivery sets and channel contents at every event,
// each paired send must carry the delivered payload over the delivering
// link, and the shadow's derived non-deliver decisions
// (oracle.Oracle.LinkDecisions) must equal the artifact's NetLog.  A DAG
// whose Verification is not Ok was built from a record the engines disagree
// about, and chaos explain refuses to present it as an explanation.
package causal

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/oracle"
	"repro/internal/trace"
)

// EdgeKind classifies one happens-before edge.
type EdgeKind uint8

// Edge kinds.  Program, crash, and FD edges all arise from footprint
// overlap (successive events mutating a common automaton) and differ only
// in what the source event is; message edges arise from FIFO send→deliver
// pairing across a channel.
const (
	// EdgeProgram orders two events that touched a common automaton.
	EdgeProgram EdgeKind = iota
	// EdgeMessage orders a send before the delivery of that same message.
	EdgeMessage
	// EdgeCrash is a program edge whose source is a crash event.
	EdgeCrash
	// EdgeFD is a program edge whose source is an FD-output event.
	EdgeFD
)

// String returns the edge kind's wire name.
func (k EdgeKind) String() string {
	switch k {
	case EdgeMessage:
		return "message"
	case EdgeCrash:
		return "crash"
	case EdgeFD:
		return "fd"
	default:
		return "program"
	}
}

// Edge is one happens-before edge between trace event indices.
type Edge struct {
	From int      `json:"from"`
	To   int      `json:"to"`
	Kind EdgeKind `json:"-"`
	// Verified reports that the edge's derivation was independently
	// confirmed: for message edges, the matched send carried exactly the
	// delivered payload over the expected link.  Footprint-derived edges are
	// verified by construction (the footprint is sampled from the replaying
	// system, which the oracle checks).
	Verified bool `json:"verified"`
}

// Verification is the diff-verification record of a Build: how the derived
// DAG was checked against the independent engines, and every disagreement
// found.
type Verification struct {
	// MessageEdges counts derived send→deliver edges; VerifiedEdges counts
	// those confirmed by payload/link match.
	MessageEdges  int `json:"messageEdges"`
	VerifiedEdges int `json:"verifiedEdges"`
	// OracleEvents is the number of events the attached oracle observed.
	OracleEvents int `json:"oracleEvents"`
	// Diffs lists every divergence: oracle errors (the channel shadow's
	// included), payload/link mismatches of a send→deliver pairing, and
	// NetLog disagreements.
	Diffs []string `json:"diffs,omitempty"`
}

// Ok reports whether every cross-check passed and every message edge was
// confirmed.
func (v Verification) Ok() bool {
	return len(v.Diffs) == 0 && v.MessageEdges == v.VerifiedEdges
}

// DAG is the happens-before graph of one recorded execution.
type DAG struct {
	// N is the location count; Events the artifact's trace.
	N      int
	Events trace.T
	// Stamps/Epoch carry the artifact's wall-clock timing when present
	// (live runs); both zero for simulated artifacts.
	Stamps []int64
	Epoch  int64
	// Edges lists every happens-before edge, ascending by To then From.
	Edges []Edge
	// Verification records how the DAG was cross-checked.
	Verification Verification

	preds [][]int32 // per event, indices into Edges with Edge.To == event
}

// Preds returns the incoming edges of event i, ascending by source.
func (d *DAG) Preds(i int) []Edge {
	out := make([]Edge, len(d.preds[i]))
	for k, ei := range d.preds[i] {
		out[k] = d.Edges[ei]
	}
	return out
}

// StampNs returns event i's wall-clock offset in nanoseconds when the
// record carries stamps, else -1.
func (d *DAG) StampNs(i int) int64 {
	if len(d.Stamps) == len(d.Events) && i < len(d.Stamps) {
		return d.Stamps[i]
	}
	return -1
}

// Build reconstructs the happens-before DAG of the execution an artifact
// records, replaying it through chaos.ReplayThroughSystemInstrumented under
// a stride-1 oracle with the channel shadow attached.  The returned error
// is the replay's: an unbuildable target, an empty trace, a trace the fresh
// system rejects or does not trace byte-identically.  Engine disagreements
// land in DAG.Verification.Diffs.
func Build(a *trace.Artifact) (*DAG, error) {
	d := &DAG{
		N:      a.N,
		Events: a.Trace,
		Stamps: a.Stamps,
		Epoch:  a.Epoch,
		preds:  make([][]int32, len(a.Trace)),
	}
	err := chaos.ReplayThroughSystemInstrumented(a, func(b *chaos.Built) func() error {
		orc := oracle.Attach(b.Sys, oracle.Options{Stride: 1, Shadow: true})
		b.Sys.AddObserver(d.observer(b.Sys, orc))
		return func() error {
			d.verify(orc, a.NetLog)
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

func (d *DAG) diff(format string, args ...any) {
	d.Verification.Diffs = append(d.Verification.Diffs, fmt.Sprintf(format, args...))
}

func (d *DAG) addEdge(kind EdgeKind, from, to int, verified bool) {
	for _, ei := range d.preds[to] {
		if d.Edges[ei].From == from {
			if kind == EdgeMessage && d.Edges[ei].Kind != EdgeMessage {
				// Upgrade: the footprint already ordered the pair, but the
				// message pairing names the mechanism.
				d.Edges[ei].Kind = EdgeMessage
				d.Edges[ei].Verified = verified
			}
			return
		}
	}
	d.preds[to] = append(d.preds[to], int32(len(d.Edges)))
	d.Edges = append(d.Edges, Edge{From: from, To: to, Kind: kind, Verified: verified})
}

// observer returns the post-Apply observer that derives each replayed
// event's incoming edges.  It must run after orc's observer, which pairs
// the event's delivery with its send.
func (d *DAG) observer(sys *ioa.System, orc *oracle.Oracle) ioa.Observer {
	lastTouch := make([]int, len(sys.Automata()))
	for i := range lastTouch {
		lastTouch[i] = -1
	}
	var fp []int
	idx := -1
	return func(owner int, act ioa.Action) {
		idx++
		fp = sys.ActionFootprint(owner, act, fp)
		send := orc.PairedSend()
		if send >= 0 {
			sa := d.Events[send]
			ok := sa.Payload == act.Payload && sa.Loc == act.Peer && sa.Peer == act.Loc
			if !ok {
				d.diff("event %d: delivery %v paired with send event %d (%v) — payload/link mismatch",
					idx, act, send, sa)
			}
			d.addEdge(EdgeMessage, send, idx, ok)
		}
		for _, ai := range fp {
			if p := lastTouch[ai]; p >= 0 && p != send {
				kind := EdgeProgram
				switch d.Events[p].Kind {
				case ioa.KindCrash:
					kind = EdgeCrash
				case ioa.KindFD:
					kind = EdgeFD
				}
				d.addEdge(kind, p, idx, true)
			}
		}
		for _, ai := range fp {
			lastTouch[ai] = idx
		}
	}
}

// verify closes the replay: it counts the message edges, then records the
// oracle's final sweep and every divergence it found, then compares the
// shadow's non-deliver link decisions with the artifact's NetLog (both
// bounded by system.MaxNetLog).
func (d *DAG) verify(orc *oracle.Oracle, netLog []trace.LinkEvent) {
	for _, e := range d.Edges {
		if e.Kind == EdgeMessage {
			d.Verification.MessageEdges++
			if e.Verified {
				d.Verification.VerifiedEdges++
			}
		}
	}
	orc.Check()
	d.Verification.OracleEvents = orc.Events()
	for _, err := range orc.Errs() {
		d.diff("%v", err)
	}
	derived := orc.LinkDecisions()
	if len(derived) != len(netLog) {
		d.diff("derived %d non-deliver link decisions, artifact logs %d", len(derived), len(netLog))
		return
	}
	for i := range derived {
		if derived[i] != netLog[i] {
			d.diff("link decision %d: derived %+v, artifact logs %+v", i, derived[i], netLog[i])
		}
	}
}
