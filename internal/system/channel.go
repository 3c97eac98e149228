// Package system implements the system model of Section 4 (Figure 1) of
// "Asynchronous Failure Detectors": process automata, reliable FIFO channel
// automata, the crash automaton, and environment automata (including the
// consensus environment EC of Algorithm 4).
package system

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/telemetry"
)

// Channel is the channel automaton Ci,j of Section 4.3: a reliable FIFO
// queue transporting messages from the process automaton at From to the
// process automaton at To.  Its input actions are send(m, To)From, its
// output actions receive(m, From)To, and it has a single task (§4.3: the
// automaton is deterministic).
//
// Channels are unaffected by crashes: messages already sent are delivered
// even if the sender subsequently crashes.
//
// The queue is a head-indexed ring: delivery never re-slices the buffer, so
// delivered message strings are released immediately and the buffer is
// bounded by the in-flight high-water mark, not by the total number of
// messages ever sent (see TestChannelReleasesDeliveredMessages).
//
// Concurrency (audited for the live backend): the ring, the send counter,
// and the shared Net log are unsynchronized by design — like every
// automaton, a Channel is stepped by exactly one serialized driver (the
// simulated scheduler, or the live runtime's step lock).  The telemetry
// registry is the one member that must be concurrency-safe, and its
// recording methods are.
type Channel struct {
	From, To ioa.Loc
	queue    ring[string]
	tel      *telemetry.Registry // queue-depth metrics, nil when telemetry is off
	net      *Net                // adversarial network, nil for the reliable default
	sent     uint64              // sends accepted so far; indexes Net link decisions
}

var _ ioa.Automaton = (*Channel)(nil)
var _ ioa.Signatured = (*Channel)(nil)

// NewChannel returns the empty channel automaton Cfrom,to.
func NewChannel(from, to ioa.Loc) *Channel {
	return &Channel{From: from, To: to}
}

// NewNetChannel returns the empty channel automaton Cfrom,to applying nt's
// per-link loss decisions (nil nt: reliable).  The caller is responsible
// for only constructing channels whose link nt's topology contains;
// NetChannels does both.
func NewNetChannel(from, to ioa.Loc, nt *Net) *Channel {
	return &Channel{From: from, To: to, net: nt}
}

// Name implements ioa.Automaton.
func (c *Channel) Name() string { return fmt.Sprintf("chan[%v>%v]", c.From, c.To) }

// Accepts implements ioa.Automaton: inputs are send(m, To)From.
func (c *Channel) Accepts(a ioa.Action) bool {
	return a.Kind == ioa.KindSend && a.Name == ioa.NameSend && a.Loc == c.From && a.Peer == c.To
}

// SignatureKeys implements ioa.Signatured: the single send(·, To)From key.
// This is the declaration that collapses System.Apply from offering each
// fired action to all n(n-1) channels of a mesh down to the one channel that
// carries it.
func (c *Channel) SignatureKeys() []ioa.SigKey {
	return ioa.KeysOf(ioa.Send(c.From, c.To, ""))
}

// Input implements ioa.Automaton: enqueue the message, subject to the
// link's loss decision when an adversarial network is attached.
func (c *Channel) Input(a ioa.Action) { c.deliverIn(a.Payload) }

// deliverIn applies the link outcome for one accepted send and returns it,
// so TrackedChannel can mirror the outcome onto its stamp queue.  The
// reliable path (no net) is exactly the pre-network behavior.
func (c *Channel) deliverIn(payload string) LinkOutcome {
	out := OutDeliver
	if c.net != nil {
		out = c.net.Spec.Outcome(c.From, c.To, c.sent)
		c.net.record(c.From, c.To, c.sent, out)
		c.sent++
	}
	switch out {
	case OutDrop:
		c.tel.Count(telemetry.CMsgDropped, 1)
		return out
	case OutDup:
		c.queue.push(payload)
		c.queue.push(payload)
		c.tel.Count(telemetry.CMsgDuplicated, 1)
	case OutReorder:
		c.queue.push(payload)
		c.queue.swapTail()
		c.tel.Count(telemetry.CMsgReordered, 1)
	default:
		c.queue.push(payload)
	}
	c.tel.Observe(telemetry.HChannelDepth, int64(c.queue.len()))
	return out
}

// SetTelemetry installs (or, with nil, removes) a registry sampling the
// queue depth after every enqueue (the in-flight message count of the §4.3
// FIFO channel).  Clones never inherit it — Clone constructs a bare
// Channel — matching ioa.System's observer/telemetry semantics.  Typically
// installed across a whole composition via Instrument.
func (c *Channel) SetTelemetry(tel *telemetry.Registry) { c.tel = tel }

// NumTasks implements ioa.Automaton.
func (c *Channel) NumTasks() int { return 1 }

// TaskLabel implements ioa.Automaton.
func (c *Channel) TaskLabel(int) string { return "deliver" }

// Enabled implements ioa.Automaton: receive(head, From)To when non-empty.
func (c *Channel) Enabled(int) (ioa.Action, bool) {
	if c.queue.len() == 0 {
		return ioa.Action{}, false
	}
	return ioa.Receive(c.To, c.From, c.queue.at(0)), true
}

// Fire implements ioa.Automaton: dequeue the delivered message.
func (c *Channel) Fire(ioa.Action) { c.queue.pop() }

// Len returns the number of messages in transit.
func (c *Channel) Len() int { return c.queue.len() }

// Queue returns a copy of the messages in transit, head first.
func (c *Channel) Queue() []string { return c.queue.snapshot() }

// Network returns the attached adversarial network, nil for reliable
// channels.  The differential oracle reads the spec from it to re-derive
// link decisions independently.
func (c *Channel) Network() *Net { return c.net }

// Sent returns the number of sends this channel has accepted — the index
// the next link decision will be drawn at.
func (c *Channel) Sent() uint64 { return c.sent }

// Clone implements ioa.Automaton.  Clones share the per-run Net (like
// TrackedChannel's SendClock) and carry the send counter: future link
// decisions are a function of it, so it is part of the state.
func (c *Channel) Clone() ioa.Automaton {
	return &Channel{From: c.From, To: c.To, queue: cloneRing(c.queue), net: c.net, sent: c.sent}
}

// Channels returns the full mesh of n(n-1) channel automata for locations
// 0..n-1, in lexicographic (from, to) order.
func Channels(n int) []ioa.Automaton { return NetChannels(n, nil) }

// NetChannels returns the channel automata of nt's topology for locations
// 0..n-1, in lexicographic (from, to) order, each applying nt's loss
// decisions.  A nil nt yields the reliable full mesh; a send over a link
// the topology omits synchronizes with no channel and vanishes at the
// sender.
func NetChannels(n int, nt *Net) []ioa.Automaton {
	var out []ioa.Automaton
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || (nt != nil && !nt.Spec.Topo.Has(ioa.Loc(i), ioa.Loc(j))) {
				continue
			}
			out = append(out, NewNetChannel(ioa.Loc(i), ioa.Loc(j), nt))
		}
	}
	return out
}
