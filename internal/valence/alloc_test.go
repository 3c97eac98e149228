package valence

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
)

// TestDeltaEncodeSteadyStateAllocs pins the parallel explorer's per-node
// encode path: when an edge qualifies for the pure splice — the owner's
// post-fire segment and every accepting candidate's post-input segment can
// be rendered by the PostFire/PostInputEncoder fast paths — deltaEncode
// assembles the child encoding with zero heap allocations once the worker's
// scratch buffers have grown to size.  (Edges that fall back to a throwaway
// clone pay for the clone by design; the fleet-wide win is that send and
// deliver steps, which dominate the ~830k-node graphs, never do.)
func TestDeltaEncodeSteadyStateAllocs(t *testing.T) {
	e, err := New(Config{N: 2, Family: afd.FamilyP, Algo: "s", TD: PerfectTD(2, 4, nil)})
	if err != nil {
		t.Fatal(err)
	}
	sys := e.rootSys.CloneBare()
	p := &parExplorer{e: e}
	ws := &wstate{}
	var scratch, enc []byte

	// pureSplice reports whether firing act at owner avoids every clone
	// fallback, by dry-running the same optional-interface probes
	// deltaEncode performs.  In this composition that is the send steps:
	// the owning process pops its outbox (machine untouched) and the
	// accepting reliable channel enqueues the payload.  Deliveries run the
	// receiving machine, so they fall back by contract.
	autos := sys.Automata()
	pureSplice := func(owner int, act ioa.Action) bool {
		pf, ok := autos[owner].(ioa.PostFireEncoder)
		if !ok {
			return false
		}
		if scratch, ok = pf.AppendEncodePostFire(act, scratch[:0]); !ok {
			return false
		}
		ws.cands = sys.DeliveryCandidates(act, ws.cands)
		for _, ci := range ws.cands {
			if ci == owner || !autos[ci].Accepts(act) {
				continue
			}
			pi, ok := autos[ci].(ioa.PostInputEncoder)
			if !ok {
				return false
			}
			if scratch, ok = pi.AppendEncodePostInput(act, scratch[:0]); !ok {
				return false
			}
		}
		return true
	}

	// Walk a short execution prefix; at every state along it, measure each
	// pure-splice edge.  (A single deep state won't do: sends drain as the
	// walk advances, so the interesting edges appear mid-prefix.)
	measured := 0
	for step := 0; step < 8; step++ {
		enc = sys.AppendEncode(enc[:0])
		var clean bool
		ws.segs, clean = splitSegs(enc, len(autos), ws.segs)
		if !clean {
			t.Fatalf("step %d: state does not segment cleanly: %q", step, enc)
		}
		for _, tr := range e.tasks {
			act, ok := sys.Enabled(tr)
			if !ok || !pureSplice(tr.Auto, act) {
				continue
			}
			measured++
			owner := tr.Auto
			for warm := 0; warm < 2; warm++ {
				ws.buf = p.deltaEncode(enc, sys, ws, owner, act)
			}
			// The splice must be byte-identical to the clone path it
			// replaces.
			ref := sys.CloneBare()
			ref.Apply(owner, act)
			if want := ref.AppendEncode(nil); !bytes.Equal(ws.buf, want) {
				t.Fatalf("task %v: delta %q, clone reference %q", tr, ws.buf, want)
			}
			if avg := testing.AllocsPerRun(100, func() {
				ws.buf = p.deltaEncode(enc, sys, ws, owner, act)
			}); avg != 0 {
				t.Errorf("task %v (%v): pure splice allocates %.2f per edge, want 0", tr, act, avg)
			}
		}
		idx, ok := sys.NextReady(-1)
		if !ok {
			break
		}
		sys.ApplyReady(idx)
	}
	if measured == 0 {
		t.Fatal("no pure-splice edge found: the fast path is unreachable on the E10 composition")
	}
}

// TestParallelExploreAllocBudget pins the engine's memory to its graph: each
// n=2 golden configuration — reduced at Workers=1, unreduced at Workers=1
// and 2 — must explore within a fixed heap-allocation budget.  These graphs
// intern about 0.1 MB of encodings and the engine allocates 2–4 MB for
// them; an engine with a per-exploration floor (a fixed chunk per index
// shard) allocates over a hundred megabytes, and an explorer that clones and
// re-encodes the full system per edge, as the reference does, 7–10 MB.
func TestParallelExploreAllocBudget(t *testing.T) {
	const budget = 6 << 20
	configs := []struct {
		name string
		cfg  Config
	}{
		{"omega n=2", Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 6, nil)}},
		{"perfect s n=2 crash", Config{N: 2, Family: afd.FamilyP, Algo: "s",
			TD: PerfectTD(2, 4, map[ioa.Loc]int{1: 1})}},
	}
	for _, tc := range configs {
		for _, mode := range []struct {
			reduce  bool
			workers int
		}{{true, 1}, {false, 1}, {false, 2}} {
			cfg := tc.cfg
			cfg.Reduce, cfg.Workers = mode.reduce, mode.workers
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := e.Explore(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s reduce=%v workers=%d: %d nodes, %.1f MB allocated",
				tc.name, mode.reduce, mode.workers, e.NumNodes(), float64(got)/1e6)
			if got > budget {
				t.Errorf("%s reduce=%v workers=%d: exploring %d nodes allocated %.1f MB, budget %.1f MB",
					tc.name, mode.reduce, mode.workers, e.NumNodes(), float64(got)/1e6, float64(budget)/1e6)
			}
		}
	}
}
