package sched

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/system"
)

// refRoundRobin is the pre-fast-path round-robin: poll every task of the
// composition in order, each full pass, firing what is enabled and admitted.
func refRoundRobin(sys *ioa.System, opts Options) {
	limit := opts.maxSteps()
	for sys.Steps() < limit {
		fired := false
		for _, tr := range sys.Tasks() {
			if sys.Steps() >= limit {
				break
			}
			act, ok := sys.Enabled(tr)
			if !ok {
				continue
			}
			if opts.Gate != nil && !opts.Gate(sys.Steps(), tr, act) {
				continue
			}
			sys.Apply(tr.Auto, act)
			fired = true
		}
		if !fired {
			return
		}
	}
}

// refRandom is the pre-fast-path random scheduler over the same PRNG:
// collect the un-gated enabled tasks by a full scan in task order, then draw
// uniformly.
func refRandom(sys *ioa.System, rng *PRNG, prio Priority, opts Options) {
	limit := opts.maxSteps()
	for sys.Steps() < limit {
		var ready []choice
		best := 0
		for _, tr := range sys.Tasks() {
			act, ok := sys.Enabled(tr)
			if !ok {
				continue
			}
			if opts.Gate != nil && !opts.Gate(sys.Steps(), tr, act) {
				continue
			}
			if prio == nil {
				ready = append(ready, choice{tr: tr, act: act})
				continue
			}
			p := prio(tr, act)
			switch {
			case len(ready) == 0 || p > best:
				best = p
				ready = append(ready[:0], choice{tr: tr, act: act})
			case p == best:
				ready = append(ready, choice{tr: tr, act: act})
			}
		}
		if len(ready) == 0 {
			return
		}
		c := ready[rng.Intn(len(ready))]
		sys.Apply(c.tr.Auto, c.act)
	}
}

// fastPathSystem composes enough concurrency to make scan order matter:
// three always-ready tickers, pre-seeded channels whose deliveries re-enable
// nothing, and a two-crash plan behind a gate.
func fastPathSystem(t *testing.T) *ioa.System {
	t.Helper()
	ch01 := system.NewChannel(0, 1)
	ch01.Input(ioa.Send(0, 1, "m1"))
	ch01.Input(ioa.Send(0, 1, "m2"))
	ch10 := system.NewChannel(1, 0)
	ch10.Input(ioa.Send(1, 0, "m3"))
	sys, err := ioa.NewSystem(
		&ticker{id: 0}, ch01, &ticker{id: 1}, ch10, &ticker{id: 2},
		system.NewCrash(system.CrashOf(0, 1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func sameExecution(t *testing.T, name string, fast, ref *ioa.System) {
	t.Helper()
	a, b := fast.Trace(), ref.Trace()
	if len(a) != len(b) {
		t.Fatalf("%s: fast trace %d events, reference %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: schedules diverge at event %d: fast %v, reference %v", name, i, a[i], b[i])
		}
	}
	if fast.Encode() != ref.Encode() {
		t.Fatalf("%s: final states differ:\nfast %s\nref  %s", name, fast.Encode(), ref.Encode())
	}
}

// TestFastPathMatchesReferenceScan: the ready-set schedulers must produce
// executions byte-identical to full-scan reference implementations — same
// PRNG, same gates — because NextReady iterates in ascending task index, the
// order the full scan visits.
func TestFastPathMatchesReferenceScan(t *testing.T) {
	opts := func() Options {
		return Options{MaxSteps: 400, Gate: CrashesAfter(25, 30)}
	}

	t.Run("round-robin", func(t *testing.T) {
		fast, ref := fastPathSystem(t), fastPathSystem(t)
		RoundRobin(fast, opts())
		refRoundRobin(ref, opts())
		sameExecution(t, "round-robin", fast, ref)
	})

	for seed := int64(0); seed < 5; seed++ {
		t.Run("random", func(t *testing.T) {
			fast, ref := fastPathSystem(t), fastPathSystem(t)
			Random(fast, seed, opts())
			refRandom(ref, NewPRNG(seed), nil, opts())
			sameExecution(t, "random", fast, ref)
		})
		t.Run("random-priority", func(t *testing.T) {
			prio := func(_ ioa.TaskRef, act ioa.Action) int {
				if act.Kind == ioa.KindReceive {
					return 1
				}
				return 0
			}
			fast, ref := fastPathSystem(t), fastPathSystem(t)
			RandomPriority(fast, NewPRNG(seed), prio, opts())
			refRandom(ref, NewPRNG(seed), prio, opts())
			sameExecution(t, "random-priority", fast, ref)
		})
	}
}
