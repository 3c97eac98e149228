package oracle

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/system"
)

// chanShadow mirrors one channel automaton with the naive representation the
// ring buffer replaced: a plain slice popped with q = q[1:].  The shadow is
// deliberately the simplest correct FIFO, so any disagreement indicts the
// optimized queue (retention, compaction, stamp bookkeeping), and the
// comparison runs at the event that desynchronized them, not at the symptom.
type chanShadow struct {
	ai     int    // automaton index in the composition
	name   string // automaton name, for error messages
	ch     *system.Channel
	tc     *system.TrackedChannel // nil for plain channels
	queue  []string
	stamps []uint64 // tracked channels only, parallel to queue
	// sends is parallel to queue: the oracle event index of each message's
	// send, -1 for a message the shadow did not see sent (queued before
	// Attach, or taken from the channel on a resync).
	sends []int
	// hasNet/spec/seq re-derive adversarial link decisions independently:
	// the spec is copied at attach and seq advances on each observed send,
	// deliberately never reading the channel's own counter again — a
	// channel that miscounts sends (and therefore draws wrong decisions)
	// diverges from the shadow instead of dragging it along.
	hasNet bool
	spec   system.NetSpec
	seq    uint64
}

// decision is one non-deliver link decision the shadow drew, kept raw so
// the event path never formats; Oracle.LinkDecisions renders the log.
type decision struct {
	from, to ioa.Loc
	seq      uint64
	out      system.LinkOutcome
}

type locPair struct{ from, to ioa.Loc }

// shadowSet indexes the shadows of a composition by the two ways an event
// touches a channel: a send routes by its (from, to) pair, a delivery by the
// firing automaton's index.
type shadowSet struct {
	all    []*chanShadow // ascending automaton index, for deterministic sweeps
	byPair map[locPair]*chanShadow
	byAuto map[int]*chanShadow
	// clocks independently re-derives send stamps: one counter per
	// SendClock, advanced by the shadow on each observed tracked send.  It
	// deliberately does not read the clock after attach, so a channel that
	// forgets (or double-counts) a tick diverges from the shadow.
	clocks map[*system.SendClock]*uint64
	// paired is the send event index the last observed event delivered, -1
	// when that event was no delivery of a shadowed message (see
	// Oracle.PairedSend).
	paired int
	// decisions logs the shadows' own non-deliver link decisions, in
	// observation order, up to system.MaxNetLog — the bound the channels'
	// Net log honors.
	decisions []decision
}

// newShadowSet builds shadows for every channel automaton of sys, seeded
// from the channels' current contents.  Returns nil when the composition has
// no channels.
func newShadowSet(sys *ioa.System) *shadowSet {
	s := &shadowSet{
		byPair: make(map[locPair]*chanShadow),
		byAuto: make(map[int]*chanShadow),
		clocks: make(map[*system.SendClock]*uint64),
		paired: -1,
	}
	for ai, a := range sys.Automata() {
		var sh *chanShadow
		switch c := a.(type) {
		case *system.TrackedChannel:
			sh = &chanShadow{ai: ai, name: c.Name(), ch: &c.Channel, tc: c,
				queue: c.Queue(), stamps: c.Stamps()}
			if _, ok := s.clocks[c.Clock()]; !ok {
				now := c.Clock().Now()
				s.clocks[c.Clock()] = &now
			}
		case *system.Channel:
			sh = &chanShadow{ai: ai, name: c.Name(), ch: c, queue: c.Queue()}
		default:
			continue
		}
		sh.sends = unseenSends(len(sh.queue))
		if nt := sh.ch.Network(); nt != nil {
			sh.hasNet = true
			sh.spec = nt.Spec
			sh.seq = sh.ch.Sent()
		}
		s.all = append(s.all, sh)
		s.byPair[locPair{sh.ch.From, sh.ch.To}] = sh
		s.byAuto[ai] = sh
	}
	if len(s.byAuto) == 0 {
		return nil
	}
	return s
}

// step advances the shadows for one observed event — the oracle's event
// number o.events-1 — and compares the touched channel.  Only sends and
// deliveries touch channels (channels are unaffected by crashes, §4.3).
func (s *shadowSet) step(o *Oracle, owner int, act ioa.Action) {
	s.paired = -1
	switch act.Kind {
	case ioa.KindSend:
		if act.Name != ioa.NameSend {
			return
		}
		sh := s.byPair[locPair{act.Loc, act.Peer}]
		if sh == nil {
			return
		}
		out := system.OutDeliver
		if sh.hasNet {
			out = sh.spec.Outcome(sh.ch.From, sh.ch.To, sh.seq)
			if out != system.OutDeliver && len(s.decisions) < system.MaxNetLog {
				s.decisions = append(s.decisions, decision{sh.ch.From, sh.ch.To, sh.seq, out})
			}
			sh.seq++
		}
		idx := o.events - 1
		var stamp uint64
		if sh.tc != nil {
			// The clock ticks on every send, even a dropped one (the
			// channel's convention: a dropped message consumes its stamp).
			ctr := s.clocks[sh.tc.Clock()]
			*ctr++
			stamp = *ctr
		}
		switch out {
		case system.OutDrop:
		case system.OutDup:
			sh.queue = append(sh.queue, act.Payload, act.Payload)
			sh.sends = append(sh.sends, idx, idx)
			if sh.tc != nil {
				sh.stamps = append(sh.stamps, stamp, stamp)
			}
		case system.OutReorder:
			sh.queue = append(sh.queue, act.Payload)
			swapTail(sh.queue)
			sh.sends = append(sh.sends, idx)
			swapTail(sh.sends)
			if sh.tc != nil {
				sh.stamps = append(sh.stamps, stamp)
				swapTail(sh.stamps)
			}
		default:
			sh.queue = append(sh.queue, act.Payload)
			sh.sends = append(sh.sends, idx)
			if sh.tc != nil {
				sh.stamps = append(sh.stamps, stamp)
			}
		}
		sh.compare(o)
	case ioa.KindReceive:
		sh := s.byAuto[owner]
		if sh == nil {
			return
		}
		if len(sh.queue) == 0 {
			o.record(fmt.Errorf(
				"oracle: event %d: %s delivered %v but the shadow queue is empty (oracle-channel-shadow)",
				o.events, sh.name, act))
			return
		}
		if sh.queue[0] != act.Payload {
			o.record(fmt.Errorf(
				"oracle: event %d: %s delivered %q but the shadow head is %q (oracle-channel-shadow)",
				o.events, sh.name, act.Payload, sh.queue[0]))
		}
		sh.queue = sh.queue[1:]
		s.paired = sh.sends[0]
		sh.sends = sh.sends[1:]
		if sh.tc != nil && len(sh.stamps) > 0 {
			sh.stamps = sh.stamps[1:]
		}
		sh.compare(o)
	}
}

// compare diffs the channel's full queue (and stamps) against the shadow,
// resynchronizing on divergence so one bug does not cascade into a report
// per subsequent event.
func (sh *chanShadow) compare(o *Oracle) {
	if got := sh.ch.Queue(); !equalStrings(got, sh.queue) {
		o.record(fmt.Errorf(
			"oracle: event %d: %s queue %q diverges from shadow %q (oracle-channel-shadow)",
			o.events, sh.name, got, sh.queue))
		sh.queue = got
		sh.sends = unseenSends(len(got))
	}
	if sh.tc != nil {
		if got := sh.tc.Stamps(); !equalUint64s(got, sh.stamps) {
			o.record(fmt.Errorf(
				"oracle: event %d: %s stamps %v diverge from shadow %v (oracle-channel-shadow)",
				o.events, sh.name, got, sh.stamps))
			sh.stamps = got
		}
	}
}

// compareAll diffs every shadow, for the end-of-run Check.
func (s *shadowSet) compareAll(o *Oracle) {
	for _, sh := range s.all {
		sh.compare(o)
	}
}

// unseenSends returns the send indices of n queued messages whose sends the
// shadow did not observe.
func unseenSends(n int) []int {
	sends := make([]int, n)
	for i := range sends {
		sends[i] = -1
	}
	return sends
}

// swapTail mirrors the lossy link's reorder on a shadow queue: the last two
// elements swap (no-op below length 2).
func swapTail[T any](q []T) {
	if len(q) >= 2 {
		q[len(q)-1], q[len(q)-2] = q[len(q)-2], q[len(q)-1]
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalUint64s(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
