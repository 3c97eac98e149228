package system

import "repro/internal/ioa"

// SendClock is a monotonic counter shared by a mesh of TrackedChannels; it
// stamps every enqueued message with its global send order.  Stamps are a
// deterministic function of the schedule, so runs over tracked channels
// replay exactly.
//
// Concurrency (audited for the live backend): the counter is a plain
// uint64, deliberately unsynchronized — it is driven by exactly one
// serialized stepper, either a simulated scheduler loop or the live
// runtime's step lock (internal/live serializes every automaton step, and
// only builds lifo=false targets, which don't use tracked channels at
// all).  Concurrent steppers over one clock are out of contract.
type SendClock struct{ now uint64 }

// NewSendClock returns a clock starting at zero.
func NewSendClock() *SendClock { return &SendClock{} }

func (c *SendClock) tick() uint64 { c.now++; return c.now }

// Now returns the number of stamps issued so far.
func (c *SendClock) Now() uint64 { return c.now }

// TrackedChannel is a Channel that additionally stamps each in-transit
// message with the global send order from a shared SendClock.  Delivery
// semantics are identical to Channel (reliable FIFO, unaffected by
// crashes); the stamps exist so adversarial schedulers can prioritize
// deliveries by send recency (e.g. deliver-last-sent-first) while staying a
// deterministic function of the schedule.  The stamp queue is the same
// head-indexed ring as the message queue, so long runs release delivered
// stamps too.
type TrackedChannel struct {
	Channel
	clock  *SendClock
	stamps ring[uint64]
}

var _ ioa.Automaton = (*TrackedChannel)(nil)
var _ ioa.Signatured = (*TrackedChannel)(nil)

// NewTrackedChannel returns the empty tracked channel automaton from→to
// stamping with clock.
func NewTrackedChannel(from, to ioa.Loc, clock *SendClock) *TrackedChannel {
	return &TrackedChannel{Channel: Channel{From: from, To: to}, clock: clock}
}

// NewNetTrackedChannel is NewTrackedChannel over an adversarial network
// (nil nt: reliable).
func NewNetTrackedChannel(from, to ioa.Loc, clock *SendClock, nt *Net) *TrackedChannel {
	return &TrackedChannel{Channel: Channel{From: from, To: to, net: nt}, clock: clock}
}

// Input enqueues the message and stamps it, mirroring the link outcome onto
// the stamp queue so stamps stay parallel to messages.  The clock ticks on
// every send regardless of outcome — the send happened; a dropped message
// simply consumes its stamp — which the oracle's shadow clock counter
// replicates.
func (c *TrackedChannel) Input(a ioa.Action) {
	out := c.deliverIn(a.Payload)
	stamp := c.clock.tick()
	switch out {
	case OutDrop:
	case OutDup:
		c.stamps.push(stamp)
		c.stamps.push(stamp)
	case OutReorder:
		c.stamps.push(stamp)
		c.stamps.swapTail()
	default:
		c.stamps.push(stamp)
	}
}

// Fire dequeues the delivered message and its stamp.
func (c *TrackedChannel) Fire(a ioa.Action) {
	c.Channel.Fire(a)
	c.stamps.pop()
}

// HeadStamp returns the send stamp of the message next in line for
// delivery, and false when the channel is empty.
func (c *TrackedChannel) HeadStamp() (uint64, bool) {
	if c.stamps.len() == 0 {
		return 0, false
	}
	return c.stamps.at(0), true
}

// Stamps returns a copy of the send stamps in transit, head first, parallel
// to Queue().
func (c *TrackedChannel) Stamps() []uint64 { return c.stamps.snapshot() }

// Clock returns the shared send clock.
func (c *TrackedChannel) Clock() *SendClock { return c.clock }

// Clone implements ioa.Automaton.  The clone SHARES the send clock: stamp
// uniqueness is global, and the chaos machinery only ever runs one line of
// execution per clock.  Drivers forking executions (the execution tree)
// should use plain Channels.
func (c *TrackedChannel) Clone() ioa.Automaton {
	return &TrackedChannel{
		Channel: Channel{From: c.From, To: c.To, queue: cloneRing(c.queue), net: c.net, sent: c.sent},
		clock:   c.clock,
		stamps:  cloneRing(c.stamps),
	}
}

// TrackedChannels returns the full mesh of n(n-1) tracked channel automata
// for locations 0..n-1 sharing one clock, in lexicographic (from, to)
// order — a drop-in replacement for Channels when schedulers need send
// stamps.
func TrackedChannels(n int, clock *SendClock) []ioa.Automaton {
	return NetTrackedChannels(n, clock, nil)
}

// NetTrackedChannels is NetChannels with send stamping: the tracked channel
// automata of nt's topology sharing one clock, in lexicographic (from, to)
// order.  A nil nt yields the reliable full mesh.
func NetTrackedChannels(n int, clock *SendClock, nt *Net) []ioa.Automaton {
	var out []ioa.Automaton
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || (nt != nil && !nt.Spec.Topo.Has(ioa.Loc(i), ioa.Loc(j))) {
				continue
			}
			out = append(out, NewNetTrackedChannel(ioa.Loc(i), ioa.Loc(j), clock, nt))
		}
	}
	return out
}
