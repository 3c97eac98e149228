package system

import (
	"strconv"

	"repro/internal/ioa"
)

// Append-style encoders (ioa.AppendEncoder) for the automata that dominate
// composed-state fingerprinting in the execution-tree explorer.  Each must
// append exactly the bytes its Encode() returns; contract_test.go checks the
// equality on driven systems.

var (
	_ ioa.AppendEncoder = (*Channel)(nil)
	_ ioa.AppendEncoder = (*Proc)(nil)
	_ ioa.AppendEncoder = (*ConsensusEnv)(nil)
	_ ioa.AppendEncoder = (*CrashAutomaton)(nil)
)

// AppendEncode implements ioa.AppendEncoder.
func (c *Channel) AppendEncode(dst []byte) []byte {
	return c.appendEncodeQueue(dst, c.queue.live(), c.sent)
}

// AppendEncode implements ioa.AppendEncoder.
func (p *Proc) AppendEncode(dst []byte) []byte {
	dst = append(dst, 'P')
	dst = appendLoc(dst, p.id)
	dst = append(dst, "|f="...)
	dst = strconv.AppendBool(dst, p.failed)
	dst = append(dst, '|')
	for _, a := range p.outbox.queue.live() {
		dst = a.AppendTo(dst)
		dst = append(dst, ';')
	}
	dst = append(dst, '|')
	if ae, ok := p.m.(ioa.AppendEncoder); ok {
		return ae.AppendEncode(dst)
	}
	return append(dst, p.m.Encode()...)
}

// AppendEncode implements ioa.AppendEncoder.
func (e *ConsensusEnv) AppendEncode(dst []byte) []byte {
	dst = append(dst, 'E')
	dst = appendLoc(dst, e.id)
	dst = append(dst, '|')
	dst = strconv.AppendBool(dst, e.stop)
	dst = append(dst, '|')
	dst = strconv.AppendBool(dst, e.allow[0])
	return strconv.AppendBool(dst, e.allow[1])
}

// AppendEncode implements ioa.AppendEncoder.
func (c *CrashAutomaton) AppendEncode(dst []byte) []byte {
	dst = append(dst, 'C', 'R')
	dst = strconv.AppendInt(dst, int64(c.fired), 10)
	dst = append(dst, '/')
	for i, l := range c.plan.Crash {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendLoc(dst, l)
	}
	return dst
}

// appendLoc appends l.String() ("⊥" for NoLoc, decimal otherwise).
func appendLoc(dst []byte, l ioa.Loc) []byte {
	if l == ioa.NoLoc {
		return append(dst, "⊥"...)
	}
	return strconv.AppendInt(dst, int64(l), 10)
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
	dst = appendLoc(dst, c.From)
	dst = append(dst, '>')
	dst = appendLoc(dst, c.To)
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
	dst = appendLoc(dst, c.From)
	dst = append(dst, '>')
	dst = appendLoc(dst, c.To)
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

// AppendEncodePostFire implements ioa.PostFireEncoder: Fire pops the outbox
// head; the hosted machine is untouched.
func (p *Proc) AppendEncodePostFire(_ ioa.Action, dst []byte) ([]byte, bool) {
	if p.outbox.queue.len() == 0 {
		return dst, false
	}
	dst = append(dst, 'P')
	dst = appendLoc(dst, p.id)
	dst = append(dst, "|f="...)
	dst = strconv.AppendBool(dst, p.failed)
	dst = append(dst, '|')
	for _, a := range p.outbox.queue.live()[1:] {
		dst = a.AppendTo(dst)
		dst = append(dst, ';')
	}
	dst = append(dst, '|')
	if ae, ok := p.m.(ioa.AppendEncoder); ok {
		return ae.AppendEncode(dst), true
	}
	return append(dst, p.m.Encode()...), true
}

// AppendEncodePostInput implements ioa.PostInputEncoder for the two inputs
// that bypass the machine (§4.2): a crash only flips the failed flag, and
// inputs at an already-failed process are absorbed with no effect.  All
// other inputs run the machine and report false.
func (p *Proc) AppendEncodePostInput(a ioa.Action, dst []byte) ([]byte, bool) {
	if a.Kind != ioa.KindCrash && !p.failed {
		return dst, false
	}
	dst = append(dst, 'P')
	dst = appendLoc(dst, p.id)
	dst = append(dst, "|f=true|"...)
	for _, qa := range p.outbox.queue.live() {
		dst = qa.AppendTo(dst)
		dst = append(dst, ';')
	}
	dst = append(dst, '|')
	if ae, ok := p.m.(ioa.AppendEncoder); ok {
		return ae.AppendEncode(dst), true
	}
	return append(dst, p.m.Encode()...), true
}
