// Package causal is the happens-before and provenance engine: it
// reconstructs the causal DAG of a recorded execution — any trace.Artifact,
// whether written by the simulated chaos runner or a live stamped run — and
// answers "why does observer i suspect j?" with a minimal explaining chain
// plus detector-QoS analytics (detection time, mistake durations,
// suspicion-propagation spread).
//
// The DAG is not inferred from the event sequence alone.  Build replays the
// artifact through a freshly composed fast-path system (the same
// cross-engine pass chaos.ReplayThroughSystem runs) and derives edges from
// the composition's own structure:
//
//   - program order comes from per-event action footprints
//     (ioa.System.ActionFootprint: the exact automaton set each event
//     mutates), so two events are ordered iff they touched a common
//     automaton — the executable form of the independence relation the
//     valence reduction uses;
//   - message edges come from per-link FIFO pairing that independently
//     re-derives every lossy-link decision (system.NetSpec.Outcome) the way
//     the oracle's channel shadow does;
//   - crash and FD-output events contribute edges classified by their kind,
//     so explanations can say "because of crash_j" rather than "because of
//     event 12".
//
// Every derivation is diff-verified against an attached oracle: the replay
// runs under oracle.Attach (stride 1, channel shadow on), matched sends must
// carry the delivered payload, the derived non-deliver decisions must equal
// the artifact's NetLog, the per-link send counters must equal the oracle
// shadow's (Oracle.ShadowSeq), and the derived in-flight queues must match
// the live channels at end of replay.  A DAG whose Verification is not Ok
// was built from a record the engines disagree about, and cmd/explain
// refuses to present it as an explanation.
package causal

import (
	"fmt"
	"sort"

	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/oracle"
	"repro/internal/system"
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
	// Diffs lists every divergence: oracle errors, FIFO pairing mismatches,
	// NetLog disagreements, per-link counter or residual-queue mismatches.
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

// linkState mirrors one directed channel during derivation: the pending
// send-event indices (FIFO order after loss decisions) and an independent
// per-link send counter, exactly the shadow's discipline.
type linkState struct {
	from, to ioa.Loc
	ch       interface {
		Len() int
	}
	queue []int
	seq   uint64
}

// Build reconstructs the happens-before DAG of the execution an artifact
// records, replaying it through a freshly built system under a stride-1
// oracle with the channel shadow attached.  The returned error is
// infrastructural (unbuildable target, trace rejected by the fresh system);
// engine disagreements land in DAG.Verification.Diffs.
func Build(a *trace.Artifact) (*DAG, error) {
	if len(a.Trace) == 0 {
		return nil, fmt.Errorf("causal: artifact has no trace")
	}
	r, err := chaos.RunFromArtifact(a)
	if err != nil {
		return nil, err
	}
	b, _, err := r.Build()
	if err != nil {
		return nil, err
	}
	orc := oracle.Attach(b.Sys, oracle.Options{Stride: 1, Shadow: true})

	d := &DAG{
		N:      a.N,
		Events: a.Trace,
		Stamps: a.Stamps,
		Epoch:  a.Epoch,
		preds:  make([][]int32, len(a.Trace)),
	}
	diff := func(format string, args ...any) {
		d.Verification.Diffs = append(d.Verification.Diffs, fmt.Sprintf(format, args...))
	}

	// Per-link derivation state, discovered from the fresh composition so
	// topology-restricted meshes get exactly their existing links.
	type pair struct{ from, to ioa.Loc }
	links := map[pair]*linkState{}
	chanOwner := map[int]*linkState{}
	autos := b.Sys.Automata()
	for ai, auto := range autos {
		var ch *system.Channel
		switch c := auto.(type) {
		case *system.TrackedChannel:
			ch = &c.Channel
		case *system.Channel:
			ch = c
		default:
			continue
		}
		ls := &linkState{from: ch.From, to: ch.To, ch: ch}
		links[pair{ch.From, ch.To}] = ls
		chanOwner[ai] = ls
	}

	addEdge := func(kind EdgeKind, from, to int, verified bool) {
		for _, ei := range d.preds[to] {
			if d.Edges[ei].From == from {
				if kind == EdgeMessage && d.Edges[ei].Kind != EdgeMessage {
					// Upgrade: the footprint already ordered the pair, but
					// the message pairing names the mechanism.
					d.Edges[ei].Kind = EdgeMessage
					d.Edges[ei].Verified = verified
					d.Verification.MessageEdges++
					if verified {
						d.Verification.VerifiedEdges++
					}
				}
				return
			}
		}
		d.preds[to] = append(d.preds[to], int32(len(d.Edges)))
		d.Edges = append(d.Edges, Edge{From: from, To: to, Kind: kind, Verified: verified})
		if kind == EdgeMessage {
			d.Verification.MessageEdges++
			if verified {
				d.Verification.VerifiedEdges++
			}
		}
	}

	lastTouch := make([]int, len(autos))
	for i := range lastTouch {
		lastTouch[i] = -1
	}
	var fpBuf []int
	var derived []trace.LinkEvent

	observe := func(idx, owner int, act ioa.Action) {
		fpBuf = b.Sys.ActionFootprint(owner, act, fpBuf)
		msgFrom := -1
		switch act.Kind {
		case ioa.KindSend:
			if act.Name != ioa.NameSend {
				break
			}
			ls := links[pair{act.Loc, act.Peer}]
			if ls == nil {
				// A topology-restricted mesh has no channel for non-neighbor
				// pairs; the send fires and the message vanishes, exactly as
				// in the composition.
				break
			}
			out := system.OutDeliver
			if r.Net.Lossy() {
				out = r.Net.Outcome(ls.from, ls.to, ls.seq)
			}
			if out != system.OutDeliver && len(derived) < system.MaxNetLog {
				derived = append(derived, trace.LinkEvent{
					Link:    fmt.Sprintf("%v>%v", ls.from, ls.to),
					Seq:     ls.seq,
					Outcome: out.String(),
				})
			}
			ls.seq++
			switch out {
			case system.OutDrop:
			case system.OutDup:
				ls.queue = append(ls.queue, idx, idx)
			case system.OutReorder:
				ls.queue = append(ls.queue, idx)
				if n := len(ls.queue); n >= 2 {
					ls.queue[n-1], ls.queue[n-2] = ls.queue[n-2], ls.queue[n-1]
				}
			default:
				ls.queue = append(ls.queue, idx)
			}
		case ioa.KindReceive:
			if act.Name != ioa.NameReceive || owner < 0 {
				break
			}
			ls := chanOwner[owner]
			if ls == nil {
				break
			}
			if len(ls.queue) == 0 {
				diff("event %d: delivery %v but the derived FIFO is empty", idx, act)
				break
			}
			send := ls.queue[0]
			ls.queue = ls.queue[1:]
			sa := d.Events[send]
			ok := sa.Payload == act.Payload && sa.Loc == act.Peer && sa.Peer == act.Loc
			if !ok {
				diff("event %d: delivery %v paired with send event %d (%v) — payload/link mismatch",
					idx, act, send, sa)
			}
			addEdge(EdgeMessage, send, idx, ok)
			msgFrom = send
		}
		for _, ai := range fpBuf {
			if p := lastTouch[ai]; p >= 0 && p != msgFrom {
				kind := EdgeProgram
				switch d.Events[p].Kind {
				case ioa.KindCrash:
					kind = EdgeCrash
				case ioa.KindFD:
					kind = EdgeFD
				}
				addEdge(kind, p, idx, true)
			}
		}
		for _, ai := range fpBuf {
			lastTouch[ai] = idx
		}
	}

	if idx, err := ioa.ReplayTraceObserved(b.Sys, a.Trace, nil, observe); err != nil {
		return nil, fmt.Errorf("causal: trace rejected by fresh system at event %d: %w", idx, err)
	}
	if got := b.Sys.Trace(); !trace.Equal(got, a.Trace) {
		diff("replayed system traced %d events, artifact records %d — not byte-identical",
			len(got), len(a.Trace))
	}
	orc.Check()
	d.Verification.OracleEvents = orc.Events()
	for _, err := range orc.Errs() {
		diff("%v", err)
	}

	// Per-link cross-checks against the oracle shadow and the live channels,
	// in deterministic link order.
	pairs := make([]pair, 0, len(links))
	for p := range links {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		return pairs[i].from < pairs[j].from ||
			(pairs[i].from == pairs[j].from && pairs[i].to < pairs[j].to)
	})
	for _, p := range pairs {
		ls := links[p]
		if seq, ok := orc.ShadowSeq(p.from, p.to); !ok {
			diff("link %v>%v: oracle shadow has no counter for it", p.from, p.to)
		} else if seq != ls.seq {
			diff("link %v>%v: derived %d sends but the oracle shadow counted %d",
				p.from, p.to, ls.seq, seq)
		}
		if got := ls.ch.Len(); got != len(ls.queue) {
			diff("link %v>%v: %d messages remain in flight but the derived FIFO holds %d",
				p.from, p.to, got, len(ls.queue))
		}
	}

	// The artifact's NetLog (when present) must equal the independently
	// derived non-deliver decisions; both honor the MaxNetLog bound.
	if a.Net != nil {
		if len(derived) != len(a.NetLog) {
			diff("derived %d non-deliver link decisions, artifact logs %d",
				len(derived), len(a.NetLog))
		} else {
			for i := range derived {
				if derived[i] != a.NetLog[i] {
					diff("link decision %d: derived %+v, artifact logs %+v",
						i, derived[i], a.NetLog[i])
				}
			}
		}
	} else if len(derived) > 0 {
		diff("derived %d loss decisions for an artifact with no network", len(derived))
	}
	return d, nil
}
