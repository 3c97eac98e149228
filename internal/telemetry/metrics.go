package telemetry

import (
	"expvar"
	"sync"
	"sync/atomic"
)

// maxTasks bounds the per-task fire vector.  Compositions in this repository
// top out around a thousand flattened tasks (the n=32 mesh); indices past the
// bound fold into the last slot rather than allocating.
const maxTasks = 4096

// Histogram is a fixed-bucket histogram with atomic counts.  A sample v
// lands in the first bucket whose upper bound satisfies v <= bound
// (Prometheus "le" semantics); samples above every bound land in the
// overflow bucket.  Bounds are fixed at construction, so Observe is a
// binary search plus one atomic add — no locks, no allocation.
type Histogram struct {
	bounds []int64 // ascending upper bounds
	counts []atomic.Int64
	over   atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

// NewHistogram returns a histogram over the given ascending upper bounds.
func NewHistogram(bounds ...int64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.sum.Add(v)
	h.n.Add(1)
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(h.bounds) {
		h.over.Add(1)
		return
	}
	h.counts[lo].Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistBucket is one bucket of a histogram snapshot: the count of samples
// with value <= LE (not cumulative across buckets).
type HistBucket struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistSnapshot is the JSON form of a histogram.
type HistSnapshot struct {
	Buckets  []HistBucket `json:"buckets"`
	Overflow int64        `json:"overflow"`
	Count    int64        `json:"count"`
	Sum      int64        `json:"sum"`
}

// snapshot copies the histogram's current state.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Buckets:  make([]HistBucket, len(h.bounds)),
		Overflow: h.over.Load(),
		Count:    h.n.Load(),
		Sum:      h.sum.Load(),
	}
	for i, b := range h.bounds {
		s.Buckets[i] = HistBucket{LE: b, Count: h.counts[i].Load()}
	}
	return s
}

// Registry is the one telemetry handle: the process-wide metric store — a
// fixed array of atomic counters/gauges indexed by Metric, fixed-bucket
// histograms for the H* metrics, a bounded per-task fire vector — and a
// ring-buffered trace Recorder.  A nil *Registry means telemetry is off:
// every recording method is then a no-op.  The zero value is not usable;
// call NewRegistry (or use the process Default).
type Registry struct {
	vals  [numMetrics]atomic.Int64
	hists [numMetrics]*Histogram
	tasks []atomic.Int64

	mu     sync.Mutex
	labels []string // task labels, set by SetTaskLabels

	rec     *Recorder
	tracing atomic.Bool // tracing plane requested (EnableTracing)
}

// NewRegistry returns a fresh registry with the standard histograms (channel
// depth: powers of two to 256; oracle sweep latency: 1µs..256ms; healed
// partition duration: powers of four to 16384 steps) and a trace recorder of
// DefaultTraceCap events.
func NewRegistry() *Registry {
	r := &Registry{
		tasks: make([]atomic.Int64, maxTasks),
		rec:   NewRecorder(DefaultTraceCap),
	}
	r.hists[HChannelDepth] = NewHistogram(0, 1, 2, 4, 8, 16, 32, 64, 128, 256)
	r.hists[HOracleSweepNs] = NewHistogram(
		1_000, 4_000, 16_000, 64_000, 256_000, // 1µs .. 256µs
		1_000_000, 4_000_000, 16_000_000, 64_000_000, 256_000_000, // 1ms .. 256ms
	)
	r.hists[HPartitionSteps] = NewHistogram(16, 64, 256, 1024, 4096, 16384)
	r.hists[HAmpleSize] = NewHistogram(1, 2, 4, 8, 16, 32)
	r.hists[HDetectionLatency] = NewHistogram(1, 4, 16, 64, 256, 1024, 4096, 16384)
	r.hists[HMistakeDuration] = NewHistogram(1, 4, 16, 64, 256, 1024, 4096, 16384)
	return r
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry, creating it — and publishing it
// as the expvar "telemetry" variable — on first use.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = NewRegistry()
		expvar.Publish("telemetry", expvar.Func(func() any { return defaultReg.Snapshot() }))
	})
	return defaultReg
}

// The recording methods below are the instrumentation API.  Each returns
// at once on a nil receiver — a nil *Registry is telemetry switched off —
// and each stays small enough to inline, so an unguarded call costs one
// branch when off.  They are safe for concurrent use.

// Count adds delta to counter m.
func (r *Registry) Count(m Metric, delta int64) {
	if r != nil {
		r.vals[m].Add(delta)
	}
}

// SetGauge stores v as gauge m's current value.
func (r *Registry) SetGauge(m Metric, v int64) {
	if r != nil {
		r.vals[m].Store(v)
	}
}

// GaugeMax raises gauge m to v if v exceeds its current value.
func (r *Registry) GaugeMax(m Metric, v int64) {
	if r == nil {
		return
	}
	for {
		cur := r.vals[m].Load()
		if v <= cur || r.vals[m].CompareAndSwap(cur, v) {
			return
		}
	}
}

// Observe records sample v in histogram m (no-op for non-histograms).
func (r *Registry) Observe(m Metric, v int64) {
	if r == nil {
		return
	}
	if h := r.hists[m]; h != nil {
		h.Observe(v)
	}
}

// IncTask counts one action fired in the flattened task with index idx
// (the "actions fired per task" vector; see SetTaskLabels).  Negative
// indices are dropped; indices past the vector fold into its last slot.
func (r *Registry) IncTask(idx int) {
	if r == nil || idx < 0 {
		return
	}
	if idx >= len(r.tasks) {
		idx = len(r.tasks) - 1
	}
	r.tasks[idx].Add(1)
}

// Span records a completed trace span that started at startNs (a value
// previously obtained from Now) and ends now, on virtual thread tid, with
// one free integer argument.
func (r *Registry) Span(cat Category, name string, startNs int64, tid int32, arg int64) {
	if r != nil {
		r.rec.Span(cat, name, startNs, tid, arg)
	}
}

// Instant records an instantaneous trace event.
func (r *Registry) Instant(cat Category, name string, tid int32, arg int64) {
	if r != nil {
		r.rec.Instant(cat, name, tid, arg)
	}
}

// FlowAt records one end of a causality arrow (Chrome trace ph "s"/"f")
// with identity id at time tsNs on virtual thread tid.  Renderers such as
// Perfetto draw an arrow from each start to the finish sharing its id; the
// causal provenance engine overlays suspicion chains this way, post hoc,
// hence the explicit timestamp (a value from Now, or a reconstructed
// offset).
func (r *Registry) FlowAt(ph FlowPhase, cat Category, name string, id uint64, tsNs int64, tid int32) {
	if r != nil {
		r.rec.FlowAt(ph, cat, name, id, tsNs, tid)
	}
}

// InstantAt records an instantaneous trace event at an explicit time.
func (r *Registry) InstantAt(cat Category, name string, tsNs int64, tid int32, arg int64) {
	if r != nil {
		r.rec.record(Event{TS: tsNs, Arg: arg, Tid: tid, Cat: cat, Name: name})
	}
}

// Now returns the registry's monotonic clock in nanoseconds, for Span start
// times and latency measurements; 0 on a nil registry.
func (r *Registry) Now() int64 {
	if r == nil {
		return 0
	}
	return now()
}

// Value returns the current value of counter or gauge m.
func (r *Registry) Value(m Metric) int64 { return r.vals[m].Load() }

// Hist returns histogram m, or nil if m is not a histogram metric.
func (r *Registry) Hist(m Metric) *Histogram { return r.hists[m] }

// Trace returns the registry's trace recorder.
func (r *Registry) Trace() *Recorder { return r.rec }

// EnableTracing marks the tracing plane as attached: an exporter (the
// -trace.out flush, a test snapshotting the ring) will read the recorder, so
// instrumentation sites should pay for rich trace labels.  Init calls this
// when a trace output is requested; it is idempotent and never unset.
func (r *Registry) EnableTracing() { r.tracing.Store(true) }

// TracingActive reports whether the tracing plane is attached: someone
// will export the trace ring (EnableTracing).  Sites that must format a
// label, rather than pass an existing string, consult it and skip the
// formatting otherwise, so a metrics-only registry never makes the hot path
// allocate.  False on a nil registry.
func (r *Registry) TracingActive() bool { return r != nil && r.tracing.Load() }

// SetTaskLabels names the slots of the per-task fire vector (typically the
// System.TaskLabel of each flattened task, in task order) so Snapshot can
// report fires per task by name instead of by index.
func (r *Registry) SetTaskLabels(labels []string) {
	r.mu.Lock()
	r.labels = append([]string(nil), labels...)
	r.mu.Unlock()
}

// Snapshot is the JSON form of a registry: every non-zero metric, grouped by
// kind, plus trace-recorder occupancy.  It is the schema served at
// /telemetry, published via expvar, and embedded in BENCH_pr.json.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	TaskFires  map[string]int64        `json:"task_fires,omitempty"`
	// TraceRecorded / TraceDropped count trace events ever recorded and
	// evicted by the bounded ring.
	TraceRecorded uint64 `json:"trace_recorded"`
	TraceDropped  uint64 `json:"trace_dropped"`
}

// Snapshot captures the registry's current state.  Zero-valued counters and
// gauges are omitted; histograms appear whenever they have samples.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	for m := Metric(0); m < numMetrics; m++ {
		if r.hists[m] != nil {
			if h := r.hists[m]; h.Count() > 0 {
				s.Histograms[m.Name()] = h.snapshot()
			}
			continue
		}
		if v := r.vals[m].Load(); v != 0 {
			if isGauge[m] {
				s.Gauges[m.Name()] = v
			} else {
				s.Counters[m.Name()] = v
			}
		}
	}
	r.mu.Lock()
	labels := r.labels
	r.mu.Unlock()
	if len(labels) > 0 {
		fires := map[string]int64{}
		for i, l := range labels {
			if i >= len(r.tasks) {
				break
			}
			if v := r.tasks[i].Load(); v != 0 {
				fires[l] = v
			}
		}
		if len(fires) > 0 {
			s.TaskFires = fires
		}
	}
	s.TraceRecorded, s.TraceDropped = r.rec.Stats()
	return s
}
