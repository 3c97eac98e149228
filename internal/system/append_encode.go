package system

import (
	"strconv"

	"repro/internal/ioa"
)

// State encoders (ioa.Automaton.AppendEncode) of this package's automata.
// The channel, process, environment and crash encoders dominate
// composed-state fingerprinting in the execution-tree explorer.

// AppendEncode implements ioa.Automaton.  Lossy channels append "@" and the
// send counter: two states differing only in it behave differently on the
// next send, so the counter is part of state identity; reliable channels
// (including topology-restricted ones) keep the exact pre-network encoding,
// so pinned golden hashes are untouched.
func (c *Channel) AppendEncode(dst []byte) []byte {
	return c.appendEncodeQueue(dst, c.queue.live(), c.sent)
}

// AppendEncode implements ioa.Automaton: 'T', the channel encoding, then
// the stamps in transit as "#[s1 s2 …]".
func (c *TrackedChannel) AppendEncode(dst []byte) []byte {
	dst = c.Channel.AppendEncode(append(dst, 'T'))
	dst = append(dst, "#["...)
	for i, s := range c.stamps.live() {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendUint(dst, s, 10)
	}
	return append(dst, ']')
}

// AppendEncode implements ioa.Automaton.
func (p *Proc) AppendEncode(dst []byte) []byte {
	return p.appendEncode(dst, p.failed, p.outbox.queue.live())
}

// AppendEncode implements ioa.Automaton.
func (e *ConsensusEnv) AppendEncode(dst []byte) []byte {
	dst = append(dst, 'E')
	dst = e.id.AppendTo(dst)
	dst = append(dst, '|')
	dst = strconv.AppendBool(dst, e.stop)
	dst = append(dst, '|')
	dst = strconv.AppendBool(dst, e.allow[0])
	return strconv.AppendBool(dst, e.allow[1])
}

// AppendEncode implements ioa.Automaton.
func (c *CrashAutomaton) AppendEncode(dst []byte) []byte {
	dst = append(dst, 'C', 'R')
	dst = strconv.AppendInt(dst, int64(c.fired), 10)
	dst = append(dst, '/')
	for i, l := range c.plan.Crash {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = l.AppendTo(dst)
	}
	return dst
}

// Post-event encoders (ioa.PostFireEncoder / ioa.PostInputEncoder): render
// the successor encoding of an event without cloning.  Proc.Fire and
// Channel.Fire only dequeue — the hosted machine never moves — so the
// delta-encoding explorer can emit the post-fire segment directly instead
// of deep-cloning a process (machine and all) just to pop one queue head.

var (
	_ ioa.PostFireEncoder  = (*Channel)(nil)
	_ ioa.PostFireEncoder  = (*Proc)(nil)
	_ ioa.PostInputEncoder = (*Channel)(nil)
	_ ioa.PostInputEncoder = (*Proc)(nil)
)

// AppendEncodePostFire implements ioa.PostFireEncoder: Fire dequeues the
// head message, so the successor encoding is the live queue minus its head.
// The send counter is unchanged (it advances on Input, not Fire).
func (c *Channel) AppendEncodePostFire(_ ioa.Action, dst []byte) ([]byte, bool) {
	if c.queue.len() == 0 {
		return dst, false
	}
	return c.appendEncodeQueue(dst, c.queue.live()[1:], c.sent), true
}

// AppendEncodePostInput implements ioa.PostInputEncoder: on a reliable link
// Input enqueues the payload, so the successor encoding is the live queue
// plus the payload at the tail.  Links with an adversarial network attached
// report false — their delivery outcome depends on (and records into)
// shared Net state, which a pure encoding preview must not touch.
func (c *Channel) AppendEncodePostInput(a ioa.Action, dst []byte) ([]byte, bool) {
	if c.net != nil {
		return dst, false
	}
	live := c.queue.live()
	dst = append(dst, 'C')
	dst = c.From.AppendTo(dst)
	dst = append(dst, '>')
	dst = c.To.AppendTo(dst)
	dst = append(dst, '[')
	for _, m := range live {
		dst = append(dst, m...)
		dst = append(dst, '\x1f')
	}
	dst = append(dst, a.Payload...)
	return append(dst, ']'), true
}

// appendEncodeQueue renders the channel encoding for an explicit live queue.
func (c *Channel) appendEncodeQueue(dst []byte, live []string, sent uint64) []byte {
	dst = append(dst, 'C')
	dst = c.From.AppendTo(dst)
	dst = append(dst, '>')
	dst = c.To.AppendTo(dst)
	dst = append(dst, '[')
	for i, m := range live {
		if i > 0 {
			dst = append(dst, '\x1f')
		}
		dst = append(dst, m...)
	}
	dst = append(dst, ']')
	if c.net != nil && c.net.Spec.Lossy() {
		dst = append(dst, '@')
		dst = strconv.AppendUint(dst, sent, 10)
	}
	return dst
}

// AppendEncodePostFire reports false: the Channel preview it would inherit
// renders neither the 'T' nor the stamps, and tracked channels, whose
// clones share one send clock, never run in the forking explorer.
func (c *TrackedChannel) AppendEncodePostFire(ioa.Action, []byte) ([]byte, bool) { return nil, false }

// AppendEncodePostInput reports false, like AppendEncodePostFire.
func (c *TrackedChannel) AppendEncodePostInput(ioa.Action, []byte) ([]byte, bool) { return nil, false }

// AppendEncodePostFire implements ioa.PostFireEncoder: Fire pops the outbox
// head; the hosted machine is untouched.
func (p *Proc) AppendEncodePostFire(_ ioa.Action, dst []byte) ([]byte, bool) {
	if p.outbox.queue.len() == 0 {
		return dst, false
	}
	return p.appendEncode(dst, p.failed, p.outbox.queue.live()[1:]), true
}

// AppendEncodePostInput implements ioa.PostInputEncoder for the two inputs
// that bypass the machine (§4.2): a crash only flips the failed flag, and
// inputs at an already-failed process are absorbed with no effect.  All
// other inputs run the machine and report false.
func (p *Proc) AppendEncodePostInput(a ioa.Action, dst []byte) ([]byte, bool) {
	if a.Kind != ioa.KindCrash && !p.failed {
		return dst, false
	}
	return p.appendEncode(dst, true, p.outbox.queue.live()), true
}

// appendEncode renders the process encoding for an explicit failed flag and
// outbox; the hosted machine encodes itself.
func (p *Proc) appendEncode(dst []byte, failed bool, outbox []ioa.Action) []byte {
	dst = append(dst, 'P')
	dst = p.id.AppendTo(dst)
	dst = append(dst, "|f="...)
	dst = strconv.AppendBool(dst, failed)
	dst = append(dst, '|')
	for _, a := range outbox {
		dst = a.AppendTo(dst)
		dst = append(dst, ';')
	}
	dst = append(dst, '|')
	return p.m.AppendEncode(dst)
}
