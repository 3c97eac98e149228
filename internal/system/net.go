package system

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// LinkOutcome is the fate a lossy link assigns one send.
type LinkOutcome uint8

// Link outcomes, in decision order (drop is tested first, then duplicate,
// then reorder).
const (
	// OutDeliver: the message is enqueued normally (reliable behavior).
	OutDeliver LinkOutcome = iota
	// OutDrop: the message vanishes at the link.
	OutDrop
	// OutDup: the message is enqueued twice back to back.
	OutDup
	// OutReorder: the message is enqueued, then swapped with its in-flight
	// predecessor — a bounded FIFO violation of window 2.
	OutReorder
)

// String returns the artifact wire name of the outcome.
func (o LinkOutcome) String() string {
	switch o {
	case OutDrop:
		return "drop"
	case OutDup:
		return "dup"
	case OutReorder:
		return "reorder"
	default:
		return "deliver"
	}
}

// NetSpec names an adversarial network as plain data: the topology plus
// per-link loss behavior.  Drop, Dup, and Reorder are permille rates; the
// per-send decision is a pure function of (Seed, link, per-link send index),
// so a run over a NetSpec is exactly as replayable as one over reliable
// channels — the spec rides in the trace.Artifact and replays re-derive
// every decision instead of playing a log back.
//
// The zero value is the reliable full mesh: IsZero reports it and every
// construction path treats it as "no network layer at all".
type NetSpec struct {
	Topo    Topology
	Seed    int64
	Drop    int // permille of sends dropped
	Dup     int // permille of sends duplicated
	Reorder int // permille of sends swapped with their predecessor
}

// Lossy reports whether any loss behavior is enabled.
func (s NetSpec) Lossy() bool { return s.Drop > 0 || s.Dup > 0 || s.Reorder > 0 }

// IsZero reports whether the spec is the reliable full mesh — no topology
// restriction, no loss.
func (s NetSpec) IsZero() bool { return s.Topo.IsFull() && !s.Lossy() }

// Equal reports spec equality (NetSpec holds a Topology, so == does not
// apply).
func (s NetSpec) Equal(o NetSpec) bool {
	return s.Topo.Equal(o.Topo) && s.Seed == o.Seed &&
		s.Drop == o.Drop && s.Dup == o.Dup && s.Reorder == o.Reorder
}

// Wire returns the spec's artifact form; the reliable full mesh is nil, the
// artifact's "no network" record.  NetSpecOf inverts it.
func (s NetSpec) Wire() *trace.NetWire {
	if s.IsZero() {
		return nil
	}
	return &trace.NetWire{Topo: s.Topo.Desc(), Seed: s.Seed, Drop: s.Drop, Dup: s.Dup, Reorder: s.Reorder}
}

// NetSpecOf decodes the artifact form of a network over n locations (nil:
// the reliable full mesh); the topology descriptor is checked against n.
func NetSpecOf(n int, w *trace.NetWire) (NetSpec, error) {
	if w == nil {
		return NetSpec{}, nil
	}
	topo, err := ParseTopology(n, w.Topo)
	if err != nil {
		return NetSpec{}, err
	}
	return NetSpec{Topo: topo, Seed: w.Seed, Drop: w.Drop, Dup: w.Dup, Reorder: w.Reorder}, nil
}

// mix64 is the SplitMix64 output finalizer — the same mixing function
// behind sched.PRNG — so link decisions inherit its statistical quality and
// its cross-release stability.  Inlined here rather than imported: the k-th
// decision of a link is a stateless function of (seed, link, k), which the
// sequential PRNG does not expose.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Outcome decides the fate of the seq-th send (0-based) over the link
// from→to.  Pure: the channel consults it while executing and the oracle's
// shadow re-derives it independently with its own counter, so a channel
// that miscounts sends diverges from the shadow instead of dragging it
// along.  Drop, Dup, and Reorder are tested against disjoint bit ranges of
// one mixed word, so a single rate change does not reshuffle the other
// decisions.
func (s NetSpec) Outcome(from, to ioa.Loc, seq uint64) LinkOutcome {
	if !s.Lossy() {
		return OutDeliver
	}
	link := uint64(from)<<32 | uint64(to)<<16
	w := mix64(uint64(s.Seed) ^ (link + (seq+1)*0x9e3779b97f4a7c15))
	if s.Drop > 0 && int(w%1000) < s.Drop {
		return OutDrop
	}
	if s.Dup > 0 && int((w>>10)%1000) < s.Dup {
		return OutDup
	}
	if s.Reorder > 0 && int((w>>20)%1000) < s.Reorder {
		return OutReorder
	}
	return OutDeliver
}

// MaxNetLog bounds the per-run link-event log, mirroring MaxGateLog for
// gate vetoes: the log is informational (replay re-derives decisions from
// the spec), so it is capped rather than complete.
const MaxNetLog = 256

// Net is one run's instance of a NetSpec: the channels of a mesh share it
// to record the non-deliver link decisions for the run's artifact.  Clones
// share the instance too — the chaos machinery runs one line of execution
// per net, like TrackedChannel's SendClock.
//
// Concurrency (audited for the live backend): the event log is appended by
// Channel.Input with no synchronization of its own, on the assumption of a
// single serialized stepper — the simulated scheduler loop, or the live
// runtime's step lock, under which every channel Input runs.  Outcome
// decisions themselves are pure (stateless), so only the informational log
// depends on this.
type Net struct {
	Spec   NetSpec
	events []trace.LinkEvent
}

// NewNet returns a fresh per-run instance of spec.
func NewNet(spec NetSpec) *Net { return &Net{Spec: spec} }

// record logs one non-deliver decision, up to MaxNetLog.
func (n *Net) record(from, to ioa.Loc, seq uint64, out LinkOutcome) {
	if out == OutDeliver || len(n.events) >= MaxNetLog {
		return
	}
	n.events = append(n.events, trace.LinkEvent{
		Link:    fmt.Sprintf("%v>%v", from, to),
		Seq:     seq,
		Outcome: out.String(),
	})
}

// Events returns the recorded non-deliver decisions, in decision order; a
// nil Net (the reliable full mesh) has none.
func (n *Net) Events() []trace.LinkEvent {
	if n == nil {
		return nil
	}
	return n.events
}
