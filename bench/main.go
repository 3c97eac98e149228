// Command afdbench is the repository's end-to-end benchmark.  It runs one
// workload per process — a closed loop with one client, issuing one checked
// op at a time — and prints every metric as "name value unit", then one JSON
// result line:
//
//	afdbench -workload chaos-verify -seed 1 -seconds 12 -trace 0
//
// Times are reported at a reference machine speed (speed.go).  With -trace 1
// the run records spans around each layer call and prints the per-layer
// metrics instead of the end-to-end ones.  Two more modes work on
// recorded results:
//
//	afdbench -workload valence-n2 -repeat 10 -out runs.jsonl   # calibrate bounds
//	afdbench compare parent.jsonl change.jsonl                  # judge a change
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs and the op the closed loop performs on them.
type workload interface {
	// setup builds the run's inputs from the seed.  Only the generated
	// inputs reach the system under test.
	setup(seed int64) error
	// passLen is the number of ops in one pass over the inputs; counts are
	// taken over the first pass so they repeat exactly.
	passLen() int
	// op performs op i and checks its outputs; an error fails the op and
	// the run goes on.
	op(i int, c *opCtx) error
}

// spec registers a workload.
type spec struct {
	name string
	// gcBeforeOp collects garbage before each op, outside its timing, so
	// one op's heap does not bill the next.
	gcBeforeOp bool
	// oneProc runs the workload at GOMAXPROCS=1 rather than the CPU count.
	// At two Ps the garbage collector does part of its work on a second
	// virtual CPU, whose speed the calibration loop, running on the first,
	// does not see.  For chaos-verify's short ops on a small heap that
	// spread op times 0.12–0.18 between probe runs, against 0.03–0.05 at
	// one P.  The workloads with large heaps stay at two: at one, marking
	// the heap on the op's own processor tied explain-query's op times to
	// the memory system's speed, which the loop follows less closely, and
	// its median moved 13% between two sets of ten runs.
	oneProc bool
	make    func() workload
}

var specs = []spec{
	{name: wChaos, gcBeforeOp: true, oneProc: true, make: func() workload { return &chaosVerify{} }},
	{name: wExplain, make: func() workload { return &explainQuery{} }},
	{name: wValN2, gcBeforeOp: true, make: func() workload { return newValence(2) }},
	{name: wValN3, gcBeforeOp: true, make: func() workload { return newValence(3) }},
	{name: wLive, make: func() workload { return &liveTCP{} }},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(allWorkloads, ", "))
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	// ops, when set, runs exactly that many ops instead of running until
	// seconds elapse; tests use it to keep runs tiny.
	ops      int
	trace    bool
	traceOut string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// env describes the machine and build a result was measured on.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// record is the full account of one run, written with -out and read by
// compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	Env      env    `json:"env"`
	// PassComplete reports that the run finished a full pass over its
	// inputs, so its exact counts cover the whole input set.
	PassComplete bool `json:"pass_complete"`
	// CalibrationMs is the calibration loop's median time in the run: how
	// fast the machine ran.
	CalibrationMs float64  `json:"calibration_ms"`
	Failures      []string `json:"failures,omitempty"`
	result
}

// minCoverageOp is the shortest op the span-coverage self-check judges.
// A Go runtime pause of tens of microseconds can fall between two spans;
// below this length one such pause alone is more than 5% of the op.
const minCoverageOp = 2 * time.Millisecond

// maxFailures bounds the failure messages a record keeps.
const maxFailures = 16

func (r *record) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// measureSetup sets the workload up several times and returns the last
// instance with the median set-up time, in seconds at the reference speed.
// One set-up is everything between process start and the first timed op:
// building the inputs, then one untimed warm-up op, so lazy initialisation
// and cold caches land in set-up rather than in the first op.  A failed
// warm-up op is counted in rec.  Set-ups repeat until 2.5 s have passed, at
// least three and at most fifty times, so the median of a cheap set-up
// rests on many samples.
func measureSetup(s spec, seed int64, cal *calibration, rec *record) (workload, float64, error) {
	const minReps, maxReps = 3, 50
	var w workload
	var times []float64
	var total time.Duration
	for len(times) < minReps || (total < 2500*time.Millisecond && len(times) < maxReps) {
		w = s.make()
		runtime.GC()
		before := cal.time()
		start := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, 0, fmt.Errorf("%s: setup: %w", s.name, err)
		}
		err := w.op(0, &opCtx{parent: -1})
		d := time.Since(start)
		after := cal.time()
		rec.Attempted++
		if err != nil {
			rec.fail("warm-up op: %v", err)
		}
		total += d
		times = append(times, atRefSpeed(d, before, after)/1e3)
	}
	return w, percentile(times, 0.5), nil
}

// run performs one benchmark run of workload s.  The returned error is an
// infrastructure failure (a set-up that cannot build its inputs); failed
// ops are counted in the record.
func run(s spec, cfg config) (*record, *tracer, error) {
	procs := runtime.NumCPU()
	if s.oneProc {
		procs = 1
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Traced: cfg.trace, Env: environment(),
	}
	cal := newCalibration()
	w, setupS, err := measureSetup(s, cfg.seed, cal, rec)
	if err != nil {
		return nil, nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	samples := map[string][]float64{}
	counts := map[string][]float64{}
	// Op i ran between calibration loops i and i+1.
	var wall, loops []time.Duration
	var tracedOp []bool
	var rssMB []float64 // resident set at the end of each op
	coverMin := 1.0
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; ; i++ {
		if cfg.ops > 0 && i >= cfg.ops || cfg.ops == 0 && i > 0 && !time.Now().Before(deadline) {
			break
		}
		// A traced run mixes traced and untraced ops, so the two timings
		// come from the same process and trace_overhead compares like with
		// like.  Consecutive inputs often alternate in kind (chaos-verify's
		// cells alternate the round-robin and random schedulers), so it
		// does not trace every other op: it traces op i where i has an even
		// number of one bits (the Thue–Morse sequence), exactly one op of
		// each pair 2k, 2k+1, and which one alternates.  It collects garbage
		// before every op, so neither kind pays for the heap the other, or a
		// traced op's probes, left.
		if s.gcBeforeOp || cfg.trace {
			runtime.GC()
		}
		c := &opCtx{
			id: i, parent: -1, samples: samples, counts: counts, counting: i < w.passLen(),
			busy: map[string]time.Duration{},
		}
		if cfg.trace && bits.OnesCount(uint(i))%2 == 0 {
			c.tr = tr
		}
		if c.tr != nil {
			tr.reserve(64)
		}
		loops = append(loops, cal.time())
		start := time.Now()
		opSpan := -1
		if c.tr != nil {
			opSpan = tr.open("op", start, -1, i)
			c.parent = opSpan
		}
		opErr := w.op(i, c)
		c.done()
		end := c.end
		d := ms(end.Sub(start))
		rec.Attempted++
		wall = append(wall, end.Sub(start))
		tracedOp = append(tracedOp, c.tr != nil)
		rssMB = append(rssMB, residentMB())
		if opErr != nil {
			rec.fail("op %d: %v", i, opErr)
		}
		if c.tr == nil {
			continue
		}
		tr.close(opSpan, end)
		if end.Sub(start) >= minCoverageOp {
			coverMin = math.Min(coverMin, tr.coverage(opSpan))
		}
		for _, p := range c.probes {
			pc := &opCtx{id: i, tr: tr, samples: samples, busy: c.busy}
			pc.parent = tr.open(p.name, time.Now(), -1, i)
			err := p.f(pc)
			tr.close(pc.parent, time.Now())
			if err != nil && opErr == nil {
				rec.fail("op %d: probe %s: %v", i, p.name, err)
				opErr = err
			}
		}
		for k, b := range c.busy {
			samples[k] = append(samples[k], ms(b)/d)
		}
	}
	loops = append(loops, cal.time())
	var opMs, tracedMs, untracedMs []float64
	for i, d := range wall {
		x := atRefSpeed(d, loops[i], loops[i+1])
		opMs = append(opMs, x)
		if tracedOp[i] {
			tracedMs = append(tracedMs, x)
		} else {
			untracedMs = append(untracedMs, x)
		}
	}
	rec.PassComplete = len(opMs) >= w.passLen()
	for _, d := range loops {
		samples["calibration_ms"] = append(samples["calibration_ms"], ms(d))
	}
	rec.CalibrationMs = percentile(samples["calibration_ms"], 0.5)
	rec.Correct = rec.Failed == 0
	rec.Metrics = map[string]value{}
	if !cfg.trace {
		sum := 0.0
		for _, d := range opMs {
			sum += d
		}
		rec.Metrics["setup_s"] = value{setupS, "s"}
		rec.Metrics["op_p50_ms"] = value{percentile(opMs, 0.5), "ms"}
		rec.Metrics["ops_per_s"] = value{float64(len(opMs)) / (sum / 1e3), "1/s"}
		rec.Metrics["rss_p50_mb"] = value{percentile(rssMB, 0.5), "MB"}
		return rec, nil, nil
	}
	samples["op_ms"] = opMs
	for _, d := range wall {
		samples["op_wall_ms"] = append(samples["op_wall_ms"], ms(d))
	}
	samples["trace.coverage_min"] = []float64{coverMin}
	overhead := 0.0
	if len(untracedMs) > 0 {
		overhead = percentile(tracedMs, 0.5)/percentile(untracedMs, 0.5) - 1
	}
	samples["trace_overhead"] = []float64{overhead}
	if coverMin < 0.95 {
		rec.Correct = false
		rec.Failures = append(rec.Failures, fmt.Sprintf("child spans cover only %.1f%% of some op", 100*coverMin))
	}
	for _, m := range perLayer {
		v := 0.0
		if m.exercisedBy(cfg.workload) {
			xs := samples[m.key()]
			if m.exact {
				xs = counts[m.key()]
			}
			if len(xs) == 0 {
				rec.Correct = false
				rec.Failures = append(rec.Failures, "no samples for "+m.name)
			}
			v = m.fold(xs)
		}
		rec.Metrics[m.name] = value{v, m.unit}
	}
	return rec, tr, nil
}

// residentMB is the process's resident set now, read from the kernel.  Pages
// an op touched stay resident until the Go runtime returns them, so at the
// end of an op it is close to the op's peak.  The median over ops is taken
// rather than the process's peak (getrusage maxrss): that peak is set by
// whichever op the garbage collector ran latest in, and spread 0.08–0.18
// between chaos-verify runs, where this median spread 0.01.  Where the
// kernel gives no /proc/self/status it falls back to that peak.
func residentMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func environment() env {
	e := env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			e.Revision += "+dirty"
		}
	}
	return e
}

// cpuModel reads the processor name the kernel reports; "unknown" where
// there is no /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// print writes the metric lines, the environment, and the result line last.
func (r *record) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %v %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# failure: %s\n", f)
	}
	envJSON, err := json.Marshal(r.Env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# %s seed=%d ops=%d pass_complete=%t calibration_ms=%.4f env=%s\n",
		r.Workload, r.Seed, r.Attempted, r.PassComplete, r.CalibrationMs, envJSON)
	line, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// appendRecord adds the record as one JSON line to path.
func appendRecord(path string, r *record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTrace(path string, tr *tracer, r *record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := map[string]any{"workload": r.Workload, "seed": r.Seed, "env": r.Env}
	if err := tr.writeChrome(f, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("afdbench", flag.ExitOnError)
	var cfg config
	var traceFlag, repeat int
	var out string
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(allWorkloads, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed all inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "how long to issue ops")
	fs.IntVar(&traceFlag, "trace", 0, "1: record layer spans and report per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the spans here as a Chrome trace")
	fs.StringVar(&out, "out", "", "append the full run record as a JSON line to this file")
	fs.IntVar(&repeat, "repeat", 0, "run the workload in this many processes with seeds seed, seed+1, ... and print each metric's spread")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "afdbench: -trace takes 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	s, err := lookupSpec(cfg.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afdbench:", err)
		os.Exit(2)
	}
	if repeat > 0 {
		if err := calibrate(os.Stdout, cfg, repeat, out); err != nil {
			fmt.Fprintln(os.Stderr, "afdbench:", err)
			os.Exit(1)
		}
		return
	}
	rec, tr, err := run(s, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afdbench:", err)
		os.Exit(1)
	}
	var errs []error
	if tr != nil && cfg.traceOut != "" {
		errs = append(errs, writeTrace(cfg.traceOut, tr, rec))
	}
	if out != "" {
		errs = append(errs, appendRecord(out, rec))
	}
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintln(os.Stderr, "afdbench:", err)
		os.Exit(1)
	}
	if err := rec.print(os.Stdout); err != nil {
		os.Exit(1)
	}
}
