package live

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Stop reasons a live run can end with.
const (
	// ReasonMaxSteps: the composition performed Options.MaxSteps events.
	ReasonMaxSteps = "max-steps"
	// ReasonDuration: the wall-clock budget elapsed.
	ReasonDuration = "duration"
	// ReasonStop: the target's stop predicate fired (e.g. consensus: every
	// live location decided).
	ReasonStop = "stop"
	// ReasonQuiescent: no task of the composition stayed enabled (quiescing
	// targets such as URB broadcast).
	ReasonQuiescent = "quiescent"
	// ReasonStopped: Runtime.Stop was called.
	ReasonStopped = "stopped"
)

// Options configures a live run.
type Options struct {
	// Transport carries delivery signals; nil selects the in-process
	// ChanTransport seeded with Seed.
	Transport Transport
	// Seed drives the default transport's delay jitter and is recorded in
	// artifacts.
	Seed int64
	// Interval is the heartbeat pacing of every automaton service: each
	// service fires its ready tasks once per interval (plus nudges when it
	// is a delivery candidate of a fired action).  Default 100µs.
	Interval time.Duration
	// MaxSteps ends the run after that many events (0: no step bound).
	MaxSteps int
	// Duration ends the run after that much wall time.  When both MaxSteps
	// and Duration are zero, Duration defaults to one second so Wait always
	// returns.
	Duration time.Duration
	// Stop, when non-nil, ends the run early (chaos.Built.Stop semantics).
	Stop func(sys *ioa.System, last ioa.Action) bool
	// CrashAfter is the wall-clock delay before the first planned crash is
	// released; CrashGap spaces the rest.  Defaults: 30× / 10× Interval.
	CrashAfter, CrashGap time.Duration
	// PartitionMask, when non-zero with PartitionAfter > 0, splits the
	// transport into the two sides of the mask after PartitionAfter; a
	// HealAfter > 0 heals it that much later.  A partition that never heals
	// before the run ends downgrades the run to safety-only checking
	// (Result.Fair=false), mirroring chaos.GateSpec.EventuallyFair.
	PartitionMask             uint64
	PartitionAfter, HealAfter time.Duration
	// Telemetry, when non-nil, receives the live plane's metrics (service
	// count, signal/nudge counters, per-task fires).  The caller wires the
	// system, channel and QoS planes (RunTarget does, via
	// chaos.TelemetryHook).
	Telemetry telemetry.Sink
}

func (o Options) interval() time.Duration {
	if o.Interval > 0 {
		return o.Interval
	}
	return 100 * time.Microsecond
}

func (o Options) crashDelays() (time.Duration, time.Duration) {
	after, gap := o.CrashAfter, o.CrashGap
	if after <= 0 {
		after = 30 * o.interval()
	}
	if gap <= 0 {
		gap = 10 * o.interval()
	}
	return after, gap
}

// Result is the outcome of a completed live run.
type Result struct {
	// Steps is the total number of events the composition performed.
	Steps int
	// Reason is the Reason* constant the run ended with.
	Reason string
	// Trace is the totally-ordered external event log — an execution trace
	// of the composition, judged by the same checkers as simulated runs.
	// It is the system's own TraceAll log, handed over clipped rather than
	// copied: an append reallocates, but an in-place write changes the
	// system's trace too.
	Trace trace.T
	// Stamps holds one timing sample per Trace event: the nanoseconds
	// elapsed from Start to the event on the monotonic clock — relative
	// offsets into the run, not absolute wall-clock times.  Epoch anchors
	// them to the wall: the run's Start instant in Unix nanoseconds.  Both
	// are persisted in the run's trace.Artifact so wall-clock QoS can be
	// recomputed offline from a replayed artifact.  Like Trace, it is the
	// runtime's own log, handed over clipped.
	Stamps []int64
	// Epoch is the run's Start instant in Unix nanoseconds (the wall-clock
	// anchor of the relative Stamps).
	Epoch int64
	// Elapsed is the wall time from Start to the end of the run.
	Elapsed time.Duration
	// Fair reports whether the run is a prefix of a fair execution: true
	// unless a transport partition was still in force when the run ended.
	Fair bool
}

// chanState locates one channel automaton inside the composition.
type chanState struct {
	task int // flattened task index of the channel's single deliver task
	q    interface{ Len() int }
}

// Runtime drives one *ioa.System as real concurrent services.
//
// Concurrency model: every automaton step goes through the step lock (mu),
// so steps are serialized and the trace is totally ordered — by
// construction an execution of the composition, which is what makes live
// runs checkable and replayable.  Goroutines, timers, and the transport
// decide only WHEN steps happen:
//
//   - each non-channel, non-crash automaton gets a service goroutine that
//     fires the automaton's ready tasks once per heartbeat interval, plus
//     immediately when a fired action names it as a delivery candidate
//     (the nudge channels);
//   - each channel automaton fires only when the transport delivers one of
//     its signals: applyLocked counts the messages a send actually
//     enqueued (post NetSpec loss outcome) and emits exactly that many
//     transport signals, so in-flight signals always equal queue length;
//   - the crash automaton gets a dedicated service that releases planned
//     crashes on a wall-clock schedule.
//
// Transport sends are buffered in sendQ under the lock and flushed after
// unlocking, and transports call deliver without holding their own locks,
// so the step lock and transport locks are never held together.  A reader
// of the trace log (follow) is woken after unlocking too, and takes the
// lock only to read how far the log reaches.
type Runtime struct {
	sys  *ioa.System
	opts Options
	tr   Transport
	tel  telemetry.Sink

	base       []int // automaton index -> first flattened task index
	ntasks     []int // automaton index -> task count
	nudges     []chan struct{}
	chanByLink map[Link]chanState
	linkByAuto map[int]Link
	crashAuto  int // -1 when the composition has no crash automaton
	crashN     int

	mu      sync.Mutex
	pending map[Link]int // in-flight delivery signals per link
	sendQ   []Link
	candBuf []int
	traced  int
	stamps  []int64
	flushed int // traced as of the last unlockAndFlush
	stopped bool
	reason  string
	partOn  bool // a transport partition is currently in force

	start   time.Time
	done    chan struct{}
	grew    chan struct{} // capacity 1: the trace log grew since follow last looked
	wg      sync.WaitGroup
	started bool
}

// New prepares a runtime for sys.  The system must be freshly built (the
// runtime assumes it is the only driver) and use TraceAll, the default.
func New(sys *ioa.System, opts Options) (*Runtime, error) {
	if opts.MaxSteps == 0 && opts.Duration == 0 {
		opts.Duration = time.Second
	}
	r := &Runtime{
		sys:        sys,
		opts:       opts,
		tr:         opts.Transport,
		tel:        opts.Telemetry,
		chanByLink: make(map[Link]chanState),
		linkByAuto: make(map[int]Link),
		crashAuto:  -1,
		pending:    make(map[Link]int),
		traced:     len(sys.Trace()),
		flushed:    len(sys.Trace()),
		done:       make(chan struct{}),
		grew:       make(chan struct{}, 1),
	}
	if r.tr == nil {
		r.tr = NewChanTransport(ChanOptions{Seed: opts.Seed})
	}
	autos := sys.Automata()
	r.base = make([]int, len(autos))
	r.ntasks = make([]int, len(autos))
	r.nudges = make([]chan struct{}, len(autos))
	for i, tref := range sys.Tasks() {
		if r.ntasks[tref.Auto] == 0 {
			r.base[tref.Auto] = i
		}
		r.ntasks[tref.Auto]++
	}
	for ai, a := range autos {
		switch c := a.(type) {
		case *system.Channel:
			r.indexChannel(ai, Link{From: c.From, To: c.To}, c)
		case *system.TrackedChannel:
			r.indexChannel(ai, Link{From: c.From, To: c.To}, c)
		case *system.CrashAutomaton:
			if r.crashAuto >= 0 {
				return nil, fmt.Errorf("live: composition has two crash automata")
			}
			r.crashAuto, r.crashN = ai, a.NumTasks()
		default:
			if r.ntasks[ai] > 0 {
				r.nudges[ai] = make(chan struct{}, 1)
			}
		}
	}
	return r, nil
}

func (r *Runtime) indexChannel(ai int, l Link, q interface{ Len() int }) {
	r.chanByLink[l] = chanState{task: r.base[ai], q: q}
	r.linkByAuto[ai] = l
}

// Start launches the transport, the automaton services, the crash service,
// and the watchdog.  Infrastructure failures are ErrInfra-wrapped by the
// transport.
func (r *Runtime) Start() error {
	if r.started {
		return fmt.Errorf("live: runtime started twice")
	}
	r.started = true
	r.start = time.Now()
	if err := r.tr.Start(r.deliverLink); err != nil {
		return err
	}
	services := 0
	for ai := range r.nudges {
		if r.nudges[ai] == nil {
			continue
		}
		services++
		r.wg.Add(1)
		// Stagger first wakeups across the interval so services don't run
		// in lockstep.
		jitter := r.opts.interval() * time.Duration(services) / time.Duration(len(r.nudges)+1)
		go r.service(ai, jitter)
	}
	if r.crashAuto >= 0 && r.crashN > 0 {
		services++
		r.wg.Add(1)
		go r.crashService()
	}
	r.wg.Add(1)
	go r.watchdog()
	if r.opts.PartitionMask != 0 && r.opts.PartitionAfter > 0 {
		r.wg.Add(1)
		go r.partitionService()
	}
	if r.tel != nil {
		r.tel.SetGauge(telemetry.GLiveServices, int64(services))
	}
	return nil
}

// service paces one automaton: fire its ready tasks each interval, or
// sooner when a delivery nudge arrives.
func (r *Runtime) service(ai int, jitter time.Duration) {
	defer r.wg.Done()
	timer := time.NewTimer(jitter)
	defer timer.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-timer.C:
		case <-r.nudges[ai]:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		r.serviceOnce(ai)
		timer.Reset(r.opts.interval())
	}
}

// serviceOnce fires each currently ready task of automaton ai once.  One
// firing per task per wakeup is the heartbeat discipline: an always-enabled
// generator task emits once per interval instead of spinning.
func (r *Runtime) serviceOnce(ai int) {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	for idx := r.base[ai]; idx < r.base[ai]+r.ntasks[ai]; idx++ {
		if r.sys.TaskReady(idx) {
			r.applyLocked(idx)
			if r.stopped {
				break
			}
		}
	}
	r.unlockAndFlush()
}

// deliverLink is the transport callback: one signal means one channel
// delivery step.  The signal's link names the channel; the channel's own
// FIFO head decides the message, so signal order within a link is
// irrelevant.
func (r *Runtime) deliverLink(l Link) {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	cs, ok := r.chanByLink[l]
	if !ok {
		r.mu.Unlock()
		return
	}
	if r.sys.TaskReady(cs.task) {
		r.applyLocked(cs.task)
	}
	r.unlockAndFlush()
}

// crashService releases the planned crash events on a wall-clock schedule.
// The crash automaton's tasks are sequenced (task k enables after k-1
// fires), so releasing them in order realizes the plan exactly.
func (r *Runtime) crashService() {
	defer r.wg.Done()
	after, gap := r.opts.crashDelays()
	for k := 0; k < r.crashN; k++ {
		d := gap
		if k == 0 {
			d = after
		}
		timer := time.NewTimer(d)
		select {
		case <-r.done:
			timer.Stop()
			return
		case <-timer.C:
		}
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			return
		}
		idx := r.base[r.crashAuto] + k
		if r.sys.TaskReady(idx) {
			r.applyLocked(idx)
		}
		r.unlockAndFlush()
	}
}

// watchdog ends the run once the composition stays quiescent (quiescing
// targets like URB have nothing left to do; non-quiescing targets never
// trigger it).  Three consecutive observations guard against sampling the
// gap between a send and its transport signal.
func (r *Runtime) watchdog() {
	defer r.wg.Done()
	tick := time.NewTicker(4 * r.opts.interval())
	defer tick.Stop()
	quiet := 0
	for {
		select {
		case <-r.done:
			return
		case <-tick.C:
		}
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			return
		}
		if r.sys.Steps() > 0 && r.sys.Quiescent() && r.inFlightLocked() == 0 {
			quiet++
		} else {
			quiet = 0
		}
		if quiet >= 3 {
			r.finishLocked(ReasonQuiescent)
		}
		r.mu.Unlock()
	}
}

func (r *Runtime) inFlightLocked() int {
	n := 0
	for _, p := range r.pending {
		n += p
	}
	return n
}

// partitionService applies and optionally heals the configured transport
// partition.
func (r *Runtime) partitionService() {
	defer r.wg.Done()
	timer := time.NewTimer(r.opts.PartitionAfter)
	defer timer.Stop()
	select {
	case <-r.done:
		return
	case <-timer.C:
	}
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.partOn = true
	r.mu.Unlock()
	if r.tel != nil {
		r.tel.SetGauge(telemetry.GPartitionActive, 1)
	}
	r.tr.Partition(r.opts.PartitionMask)
	if r.opts.HealAfter <= 0 {
		return
	}
	timer.Reset(r.opts.HealAfter)
	select {
	case <-r.done:
		return
	case <-timer.C:
	}
	r.tr.Partition(0)
	r.mu.Lock()
	r.partOn = false
	r.mu.Unlock()
	if r.tel != nil {
		r.tel.SetGauge(telemetry.GPartitionActive, 0)
	}
}

// applyLocked performs one step: fire the ready action of flattened task
// idx through the shared system, stamp the trace, account transport
// signals, nudge delivery candidates, and evaluate stop conditions.
// Callers hold mu and have checked TaskReady(idx).
func (r *Runtime) applyLocked(idx int) {
	owner := r.sys.TaskAt(idx).Auto
	act := r.sys.ApplyReady(idx)
	if t := r.sys.Trace(); len(t) > r.traced {
		r.traced = len(t)
		if len(r.stamps) == cap(r.stamps) {
			// Double a full log, as ioa.System doubles its event log:
			// plain append grows a large slice by only ~1.25x, so a long
			// run would allocate several times its stamps under the lock.
			r.stamps = append(make([]int64, 0, 2*len(r.stamps)+1), r.stamps...)
		}
		r.stamps = append(r.stamps, int64(time.Since(r.start)))
	}
	if r.tel != nil {
		r.tel.Count(telemetry.CSchedSteps, 1)
		r.tel.IncTask(idx)
	}
	if act.Kind == ioa.KindSend {
		// The channel automaton just accepted this send (same composition
		// step).  Whatever the link outcome enqueued — 0 for a drop, 2 for
		// a duplicate — is the queue growth over the signals already in
		// flight; emit exactly that many signals so in-flight signals stay
		// equal to queue length.
		l := Link{From: act.Loc, To: act.Peer}
		if cs, ok := r.chanByLink[l]; ok {
			if enq := cs.q.Len() - r.pending[l]; enq > 0 {
				r.pending[l] += enq
				for i := 0; i < enq; i++ {
					r.sendQ = append(r.sendQ, l)
				}
			}
		}
	} else if l, ok := r.linkByAuto[owner]; ok {
		// A channel's own deliver task fired: one signal consumed.
		r.pending[l]--
	}
	// Wake the services this action was offered to, so reactions (gossip
	// forwarding, acks, decisions) don't wait out a full heartbeat.
	r.candBuf = r.sys.DeliveryCandidates(act, r.candBuf)
	for _, ai := range r.candBuf {
		if ai == owner || r.nudges[ai] == nil {
			continue
		}
		select {
		case r.nudges[ai] <- struct{}{}:
			if r.tel != nil {
				r.tel.Count(telemetry.CLiveNudges, 1)
			}
		default:
		}
	}
	if r.opts.Stop != nil && r.opts.Stop(r.sys, act) {
		r.finishLocked(ReasonStop)
		return
	}
	if r.opts.MaxSteps > 0 && r.sys.Steps() >= r.opts.MaxSteps {
		r.finishLocked(ReasonMaxSteps)
	}
}

// follow hands feed each stretch of the trace log the run appends, in
// order and outside the step lock, until the run has stopped and feed has
// seen the whole log, or feed fails.  It takes the lock only to read the
// log's length and the stopped flag.  Entries below that length are never
// written again — the log only appends, and doubling a full log copies
// them into a new array and leaves the old one intact — so feed reads them
// while the run goes on.  Between stretches it sleeps until a step grows
// the log or the run stops.
func (r *Runtime) follow(feed func([]ioa.Action) error) {
	fed := 0
	for {
		r.mu.Lock()
		log, stopped := r.sys.Trace(), r.stopped
		r.mu.Unlock()
		if len(log) > fed {
			if feed(log[fed:]) != nil {
				return
			}
			fed = len(log)
		}
		if stopped {
			return
		}
		select {
		case <-r.grew:
		case <-r.done:
		}
	}
}

// unlockAndFlush ends a critical section that may have stepped the system:
// it releases mu, then pushes the sends the steps buffered into the
// transport and, if the trace log grew, tells follow without blocking.
// Neither is part of a step.  Transports may take their own locks in Send,
// and deliver callbacks take mu, so holding both would invert lock order.
func (r *Runtime) unlockAndFlush() {
	q := r.sendQ
	r.sendQ = nil
	grew := r.traced > r.flushed
	r.flushed = r.traced
	r.mu.Unlock()
	for _, l := range q {
		r.tr.Send(l)
	}
	if len(q) > 0 && r.tel != nil {
		r.tel.Count(telemetry.CLiveSignals, int64(len(q)))
	}
	if grew {
		select {
		case r.grew <- struct{}{}:
		default:
		}
	}
}

// finishLocked ends the run once; later calls keep the first reason.
func (r *Runtime) finishLocked(reason string) {
	if r.stopped {
		return
	}
	r.stopped = true
	r.reason = reason
	close(r.done)
}

// Stop ends the run early (reason ReasonStopped).  Wait still performs the
// teardown and returns the result.
func (r *Runtime) Stop() {
	r.mu.Lock()
	r.finishLocked(ReasonStopped)
	r.mu.Unlock()
}

// Wait blocks until the run ends (stop condition, duration, or Stop), tears
// the transport and services down, and returns the result.
func (r *Runtime) Wait() Result {
	var durC <-chan time.Time
	if r.opts.Duration > 0 {
		t := time.NewTimer(r.opts.Duration)
		defer t.Stop()
		durC = t.C
	}
	select {
	case <-r.done:
	case <-durC:
		r.mu.Lock()
		r.finishLocked(ReasonDuration)
		r.mu.Unlock()
	}
	// Stop the transport first: it waits out in-flight deliver callbacks
	// (they see stopped and return), so after this no goroutine can step
	// the system but us.
	r.tr.Stop()
	r.wg.Wait()
	if r.tel != nil {
		r.tel.SetGauge(telemetry.GLiveServices, 0)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	res := Result{
		Steps:   r.sys.Steps(),
		Reason:  r.reason,
		Trace:   slices.Clip(r.sys.Trace()),
		Stamps:  slices.Clip(r.stamps),
		Epoch:   r.start.UnixNano(),
		Elapsed: time.Since(r.start),
		Fair:    !r.partOn,
	}
	return res
}

// Run is the one-shot convenience: Start, Wait.
func (r *Runtime) Run() (Result, error) {
	if err := r.Start(); err != nil {
		return Result{}, err
	}
	return r.Wait(), nil
}
