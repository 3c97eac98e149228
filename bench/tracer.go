package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer.  Spans of one op share its id; probe spans sit beside the op span,
// not inside it, so re-timed calls never inflate op timings.
type span struct {
	name       string
	start, end time.Duration // offsets from the tracer's epoch
	parent     int           // index of the enclosing span, -1 for a root
	op         int
}

// tracer keeps every span of a traced run in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) open(name string, start time.Time, parent, op int) int {
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.epoch), parent: parent, op: op})
	return len(t.spans) - 1
}

func (t *tracer) close(idx int, end time.Time) { t.spans[idx].end = end.Sub(t.epoch) }

// reserve makes room for n more spans, so that the buffer does not grow,
// and copy itself, in the middle of an op.
func (t *tracer) reserve(n int) {
	if cap(t.spans)-len(t.spans) < n {
		t.spans = append(make([]span, 0, 2*cap(t.spans)+n), t.spans...)
	}
}

// coverage is the share of span idx that its direct children cover.
// Children of one span run one after another, so their durations add up
// without overlap.
func (t *tracer) coverage(idx int) float64 {
	total := t.spans[idx].end - t.spans[idx].start
	if total <= 0 {
		return 1
	}
	var covered time.Duration
	for _, s := range t.spans[idx+1:] {
		if s.parent == idx {
			covered += s.end - s.start
		}
	}
	return float64(covered) / float64(total)
}

// writeChrome writes the spans as a Chrome trace_event file (complete "X"
// events, microsecond timestamps), loadable in Perfetto or chrome://tracing.
// Probe spans go on their own track.
func (t *tracer) writeChrome(w io.Writer, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		tid := 1
		if s.parent < 0 && s.name != "op" {
			tid = 2
		}
		evs = append(evs, event{
			Name: s.name, Cat: "afdbench", Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]int{"op": s.op, "parent": s.parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
}

// opCtx is what a workload's op sees: span and sample recording for the op
// it performs.  In an untraced op the tracer is nil; spans still time their
// calls but record nothing, and samples and probes are dropped.
type opCtx struct {
	id      int
	tr      *tracer
	parent  int
	samples map[string][]float64
	probes  []probe
	// counting is set while the op belongs to the workload's first pass
	// over its inputs, the window deterministic counts are taken over.
	counting bool
	counts   map[string][]float64
	// busy holds the time the op spent in each layer; the run reports it
	// as the layer's share of the op's time.
	busy map[string]time.Duration
	// end is when the op's last call into the system returned.
	end time.Time
}

type probe struct {
	name string
	f    func(c *opCtx) error
}

func (c *opCtx) traced() bool { return c.tr != nil }

// done marks the end of the op's calls into the system.  The output checks
// and the benchmark's bookkeeping after it are not part of the op's time.
func (c *opCtx) done() {
	if c.end.IsZero() {
		c.end = time.Now()
	}
}

// span runs f as a child of the current span and returns its duration.
func (c *opCtx) span(name string, f func()) time.Duration {
	start := time.Now()
	if c.tr == nil {
		f()
		return time.Since(start)
	}
	idx := c.tr.open(name, start, c.parent, c.id)
	saved := c.parent
	c.parent = idx
	f()
	c.parent = saved
	end := time.Now()
	c.tr.close(idx, end)
	return end.Sub(start)
}

// mark records a span between two instants taken inside a layer (the
// instrumentation hooks of chaos.ExecuteInstrumented) under the current
// span.
func (c *opCtx) mark(name string, start, end time.Time) {
	if c.tr != nil {
		c.tr.close(c.tr.open(name, start, c.parent, c.id), end)
	}
}

// sample records one per-layer observation; untraced ops record none.
func (c *opCtx) sample(key string, v float64) {
	if c.tr != nil {
		c.samples[key] = append(c.samples[key], v)
	}
}

// share adds d to the time the op spent in a layer; untraced ops record
// none.
func (c *opCtx) share(key string, d time.Duration) {
	if c.tr != nil {
		c.busy[key] += d
	}
}

// count records one deterministic per-op count, whether or not the op is
// traced.
func (c *opCtx) count(key string, v float64) {
	if c.counting {
		c.counts[key] = append(c.counts[key], v)
	}
}

// probe queues f to run after the op span closes, in a root span of its
// own.  Probes re-time single calls of a traced op; untraced ops skip them.
func (c *opCtx) probe(name string, f func(c *opCtx) error) {
	if c.tr != nil {
		c.probes = append(c.probes, probe{name, f})
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
