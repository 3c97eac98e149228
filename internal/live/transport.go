// Package live runs the repository's I/O automata as real concurrent
// services: one goroutine per automaton, wall-clock heartbeat pacing, and a
// pluggable transport carrying message-delivery signals between locations.
//
// The design constraint (ROADMAP item 1) is ONE automaton implementation for
// both execution backends.  The live runtime therefore never re-implements a
// process, channel, or detector: it hosts the exact composition the
// simulated scheduler would drive (the same *ioa.System) and serializes
// every automaton step through a single step lock.  Real concurrency lives
// in WHEN steps happen — goroutine scheduling, wall-clock timers, transport
// delays — while each step itself is the atomic owner-fire-plus-deliveries
// event of §2.3 composition.  The payoff: the totally-ordered event log of a
// live run is, by construction, an execution of the composition, so the
// existing spec checkers judge it directly and ioa.ReplayTrace re-drives it
// byte-for-byte through the simulated engine, following the log as the run
// appends to it (see RunTarget).
//
// Chaos composes in two layers, mirroring the simulated backend:
//
//   - message LOSS (drop/dup/reorder) and TOPOLOGY are properties of the
//     channel automata themselves, via system.NetSpec — decided at send
//     time by the same pure function in both backends, which is what keeps
//     lossy live runs replayable;
//   - message DELAY and PARTITION are properties of the transport: a
//     delivery signal may be held arbitrarily long, which only delays an
//     enabled channel task — always a legal scheduling choice.
package live

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ioa"
	"repro/internal/sched"
)

// ErrInfra marks infrastructure failures (socket bind, dial, accept) as
// opposed to specification verdicts.  CI retries infra failures only: a
// port collision is environment noise, a checker rejection never is.
var ErrInfra = errors.New("live: infrastructure failure")

// Infra wraps err so errors.Is(err, ErrInfra) holds.
func Infra(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrInfra, err)
}

// Link identifies a directed channel automaton Ci,j of the composition.
type Link struct{ From, To ioa.Loc }

// String renders the link in topology-descriptor form.
func (l Link) String() string { return fmt.Sprintf("%v>%v", l.From, l.To) }

// Transport carries message-delivery signals between locations.  The
// runtime calls Send once per message an accepted send actually enqueued on
// a channel automaton (post NetSpec outcome: zero for a drop, two for a
// duplicate); the transport must eventually invoke the deliver callback
// once per signal — unless stopped, or the link is partitioned and never
// heals.  A signal names its link and nothing else, and signal order within
// a link is irrelevant: the channel automaton is the one authority on what
// is delivered — the FIFO queue whose head each signal releases — so the
// transport controls timing only, never content.
//
// deliver is invoked from transport-owned goroutines; the runtime
// serializes the resulting channel step internally.  Implementations must
// not hold internal locks while calling deliver (the runtime's step lock is
// taken inside), and Send must be safe for concurrent use.
type Transport interface {
	// Start installs the runtime's deliver callback.  Called exactly once,
	// before any Send.
	Start(deliver func(Link)) error
	// Send registers one message enqueued on l.
	Send(l Link)
	// Partition splits the locations into the two sides of mask (bit l set
	// = location l on side 1): cross-side signals are held until the
	// partition heals.  Partition(0) heals, releasing every held signal.
	Partition(mask uint64)
	// Stop tears the transport down.  No deliver callback is invoked after
	// Stop returns; held and in-flight signals are discarded.
	Stop()
}

// crossSide reports whether l crosses the two sides of mask.
func crossSide(mask uint64, l Link) bool {
	return mask != 0 && (mask>>uint(l.From)&1) != (mask>>uint(l.To)&1)
}

// partitionGate is the receive side both transports share: it hands arriving
// signals to the runtime's deliver callback, parks cross-side signals while a
// partition is active, and drops everything once stopped.  Its mutex also
// guards the embedding transport's own state.
type partitionGate struct {
	mu      sync.Mutex
	deliver func(Link)
	mask    uint64
	held    map[Link]int // signals parked by an active partition
	stopped bool
}

// Start implements Transport.
func (g *partitionGate) Start(deliver func(Link)) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.deliver = deliver
	return nil
}

// fire hands one signal to the runtime, or parks it while the link is
// partitioned.  The deliver callback runs outside the lock.
func (g *partitionGate) fire(l Link) {
	g.mu.Lock()
	if g.stopped || g.deliver == nil {
		g.mu.Unlock()
		return
	}
	if crossSide(g.mask, l) {
		if g.held == nil {
			g.held = make(map[Link]int)
		}
		g.held[l]++
		g.mu.Unlock()
		return
	}
	deliver := g.deliver
	g.mu.Unlock()
	deliver(l)
}

// Partition implements Transport.
func (g *partitionGate) Partition(mask uint64) {
	g.mu.Lock()
	g.mask = mask
	var release []Link
	for l, n := range g.held {
		if !crossSide(mask, l) {
			for i := 0; i < n; i++ {
				release = append(release, l)
			}
			delete(g.held, l)
		}
	}
	deliver := g.deliver
	stopped := g.stopped
	g.mu.Unlock()
	if stopped || deliver == nil {
		return
	}
	for _, l := range release {
		deliver(l)
	}
}

// stopLocked marks the gate stopped and discards held signals; it reports
// whether the gate was already stopped.  The caller holds mu.
func (g *partitionGate) stopLocked() (already bool) {
	already = g.stopped
	g.stopped = true
	g.held = nil
	return already
}

// ChanOptions configures the in-process transport.
type ChanOptions struct {
	// Seed drives the per-signal delay jitter (deterministic choices; the
	// realized interleaving still depends on goroutine scheduling).
	Seed int64
	// MinDelay/MaxDelay bound the per-signal delivery delay.  Defaults:
	// 20µs / 200µs.
	MinDelay, MaxDelay time.Duration
}

func (o ChanOptions) delays() (time.Duration, time.Duration) {
	lo, hi := o.MinDelay, o.MaxDelay
	if lo <= 0 {
		lo = 20 * time.Microsecond
	}
	if hi < lo {
		hi = 10 * lo
	}
	return lo, hi
}

// ChanTransport is the in-process transport: every delivery signal becomes
// a timer whose duration is drawn from a seeded PRNG, modeling asynchronous
// link latency without leaving the process.  It is the default transport
// and the one the conformance table pins.
type ChanTransport struct {
	partitionGate // mu also guards rng and timers.Add

	opts   ChanOptions
	rng    sched.PRNG
	timers sync.WaitGroup
}

var _ Transport = (*ChanTransport)(nil)

// NewChanTransport returns an in-process transport with the given options.
func NewChanTransport(opts ChanOptions) *ChanTransport {
	return &ChanTransport{opts: opts, rng: sched.NewPRNG(opts.Seed)}
}

// Send implements Transport: schedule one delivery signal after a jittered
// delay.
func (t *ChanTransport) Send(l Link) {
	lo, hi := t.opts.delays()
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	d := lo
	if span := int64(hi - lo); span > 0 {
		d += time.Duration(t.rng.Intn(int(span)))
	}
	t.timers.Add(1)
	t.mu.Unlock()
	time.AfterFunc(d, func() {
		defer t.timers.Done()
		t.fire(l)
	})
}

// Stop implements Transport.
func (t *ChanTransport) Stop() {
	t.mu.Lock()
	t.stopLocked()
	t.mu.Unlock()
	// Timers fire into the stopped check above; waiting for them keeps
	// "no deliver after Stop" exact rather than approximate.
	t.timers.Wait()
}
