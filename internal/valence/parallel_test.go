package valence

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/trace"
)

// tablesEqual asserts every observable table of two explored graphs is
// byte-identical: node count, FD tags, valence masks, per-node interned
// encodings, and the full edge arena (labels, action tags, targets, CSR
// offsets).  Encodings are compared per node (the NodeEncoding contract):
// the reference and the engine intern bytes in different places.
func tablesEqual(t *testing.T, ref, got *Explorer) {
	t.Helper()
	if len(ref.fdIdx) != len(got.fdIdx) {
		t.Fatalf("node count: ref %d, got %d", len(ref.fdIdx), len(got.fdIdx))
	}
	for i := range ref.fdIdx {
		if ref.fdIdx[i] != got.fdIdx[i] {
			t.Fatalf("node %d: fdIdx ref %d, got %d", i, ref.fdIdx[i], got.fdIdx[i])
		}
		if ref.mask[i] != got.mask[i] {
			t.Fatalf("node %d: mask ref %b, got %b", i, ref.mask[i], got.mask[i])
		}
		if !bytes.Equal(ref.encs[i], got.encs[i]) {
			t.Fatalf("node %d: encoding ref %q, got %q", i, ref.encs[i], got.encs[i])
		}
	}
	if len(ref.edges) != len(got.edges) {
		t.Fatalf("edge count: ref %d, got %d", len(ref.edges), len(got.edges))
	}
	for k := range ref.edges {
		if ref.edges[k] != got.edges[k] {
			t.Fatalf("edge %d: ref %+v, got %+v", k, ref.edges[k], got.edges[k])
		}
	}
	for i := range ref.estart {
		if ref.estart[i] != got.estart[i] {
			t.Fatalf("estart[%d]: ref %d, got %d", i, ref.estart[i], got.estart[i])
		}
	}
}

// TestParallelMatchesSerial is the determinism contract of the engine: for
// each configuration (two tD variants × two system configs) its full
// node/edge/valence tables must be byte-identical to the reference
// explorer's (ExploreReference) at several worker counts, one included.
func TestParallelMatchesSerial(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"omega n=2 free", Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 6, nil)}},
		{"omega n=2 crash", Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 6, map[ioa.Loc]int{1: 2})}},
		{"perfect s n=2 free", Config{N: 2, Family: afd.FamilyP, Algo: "s", TD: PerfectTD(2, 4, nil)}},
		{"perfect s n=2 crash", Config{N: 2, Family: afd.FamilyP, Algo: "s", TD: PerfectTD(2, 4, map[ioa.Loc]int{1: 1})}},
	}
	for _, tc := range configs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref, err := ExploreReference(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 8} {
				par := tc.cfg
				par.Workers = w
				got := explore(t, par)
				tablesEqual(t, ref, got)
				// The derived reports must match too.
				if ref.Stats() != got.Stats() {
					t.Fatalf("workers=%d: stats ref %+v, got %+v", w, ref.Stats(), got.Stats())
				}
				rh, gh := ref.FindHooks(25), got.FindHooks(25)
				if len(rh) != len(gh) {
					t.Fatalf("workers=%d: hook count ref %d, got %d", w, len(rh), len(gh))
				}
				for i := range rh {
					if rh[i] != gh[i] {
						t.Fatalf("workers=%d: hook %d ref %v, got %v", w, i, rh[i], gh[i])
					}
				}
				var rd, gd bytes.Buffer
				if err := ref.WriteDOT(&rd, 500); err != nil {
					t.Fatal(err)
				}
				if err := got.WriteDOT(&gd, 500); err != nil {
					t.Fatal(err)
				}
				if rd.String() != gd.String() {
					t.Fatalf("workers=%d: DOT output differs", w)
				}
			}
		})
	}
}

// goldenReduced is a golden configuration explored under partial-order
// reduction: its size, the steps the ample sets pruned, the proviso
// rounds, and the re-expansions forced full.
type goldenReduced struct{ nodes, edges, pruned, rounds, forced int }

// goldenStats pins the four execution-tree configurations of E10–E11 and
// E18: the unreduced graph's nodes, edges, bivalent nodes and FD edges,
// the hooks both graphs yield and their critical locations, and the graph
// partial-order reduction explores.  TestGoldenStats checks every figure
// against exploration; ExampleExplorer_golden and
// ExampleExplorer_reduction print them, so EXPERIMENTS.md shows the
// tables without exploring twice.
var goldenStats = []struct {
	name                         string
	cfg                          Config
	nodes, edges, biv, fd, hooks int
	crit                         string
	red                          goldenReduced
}{
	{"n=2 free", Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 6, nil)},
		1105, 2632, 91, 1020, 182, "{0}", goldenReduced{1105, 2480, 152, 2, 2}},
	{"n=2 free, short tD", Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 3, nil)},
		595, 1378, 49, 510, 98, "{0}", goldenReduced{595, 1286, 92, 2, 2}},
	{"n=2 S-algo, crash 1", Config{N: 2, Family: afd.FamilyP, Algo: "s",
		TD: PerfectTD(2, 4, map[ioa.Loc]int{1: 1})},
		1617, 3468, 77, 1216, 80, "{0}", goldenReduced{1349, 2334, 569, 2, 5}},
	{"n=3 S-algo, crash 2", Config{N: 3, Family: afd.FamilyP, Algo: "s",
		TD:     PerfectTD(3, 2, map[ioa.Loc]int{2: 1}),
		Values: []int{-1, 1, 1}, MaxNodes: 1_500_000},
		230890, 828706, 496, 50942, 992, "{0}", goldenReduced{70808, 156438, 99454, 3, 116}},
}

// TestGoldenStats explores each goldenStats configuration: any change to
// exploration order, memoization, or valence propagation that alters the
// explored graph fails here.  On the unreduced graph the root is
// bivalent, every node reaches a decision, Lemma 52 and Proposition 50
// hold, and every hook passes the Theorem-59 verification.  Each
// configuration is also explored under partial-order reduction at one and
// two workers, which must yield the same pinned reduced graph and the
// same number of hooks.  No row forces a node full by the cycle proviso
// or poisons an expansion.
func TestGoldenStats(t *testing.T) {
	for _, tc := range goldenStats {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e := explore(t, tc.cfg)
			st := e.Stats()
			if st.Nodes != tc.nodes || st.Edges != tc.edges ||
				st.Bivalent != tc.biv || st.FDEdges != tc.fd {
				t.Fatalf("stats drifted: got Nodes=%d Edges=%d Bivalent=%d FDEdges=%d, "+
					"want Nodes=%d Edges=%d Bivalent=%d FDEdges=%d",
					st.Nodes, st.Edges, st.Bivalent, st.FDEdges,
					tc.nodes, tc.edges, tc.biv, tc.fd)
			}
			if e.Valence(e.Root()) != ValBivalent || st.Unknown != 0 {
				t.Fatalf("root %v with %d undecidable nodes, want a bivalent root and none",
					e.Valence(e.Root()), st.Unknown)
			}
			if err := e.CheckLemma52(); err != nil {
				t.Fatal(err)
			}
			if err := e.CheckProposition50(); err != nil {
				t.Fatal(err)
			}
			hooks := e.FindHooks(0)
			var crit ioa.LocSet
			for _, h := range hooks {
				if err := e.VerifyHook(h); err != nil {
					t.Fatal(err)
				}
				crit.Add(h.Critical)
			}
			if len(hooks) != tc.hooks || crit.String() != tc.crit {
				t.Fatalf("hooks drifted: got %d critical at %v, want %d critical at %s",
					len(hooks), crit, tc.hooks, tc.crit)
			}
			for _, w := range []int{1, 2} {
				cfg := tc.cfg
				cfg.Reduce, cfg.Workers = true, w
				r := explore(t, cfg)
				rs := r.Stats()
				got := goldenReduced{rs.Nodes, rs.Edges, rs.PrunedSteps, rs.ReduceRounds,
					rs.ForcedCycle + rs.ForcedBivalent}
				hooks := len(r.FindHooks(0))
				if got != tc.red || hooks != tc.hooks || rs.ForcedCycle != 0 || rs.Poisoned != 0 {
					t.Fatalf("reduced graph at workers=%d drifted: got %+v with %d hooks, ForcedCycle=%d Poisoned=%d, "+
						"want %+v with %d hooks, ForcedCycle=0 Poisoned=0",
						w, got, hooks, rs.ForcedCycle, rs.Poisoned, tc.red, tc.hooks)
				}
			}
		})
	}
}

// The execution trees of E10–E11 (Sections 8 and 9.6): the memoized
// quotient of RtD for each golden configuration, with its valences and
// hooks.  Every hook's critical location is live in tD (Theorem 59); the
// faulty column lists tD's crashed locations.  The figures are
// goldenStats, which TestGoldenStats checks against exploration.
func ExampleExplorer_golden() {
	fmt.Printf("%-19s %-4s %6s %6s %8s %8s %5s %-8s %s\n",
		"config", "fd", "nodes", "edges", "bivalent", "fd-edges", "hooks", "critical", "faulty")
	for _, g := range goldenStats {
		fmt.Printf("%-19s %-4s %6d %6d %8d %8d %5d %-8s %v\n", g.name, g.cfg.Family,
			g.nodes, g.edges, g.biv, g.fd, g.hooks, g.crit, trace.Faulty(g.cfg.TD))
	}
	// Output:
	// config              fd    nodes  edges bivalent fd-edges hooks critical faulty
	// n=2 free            FD-Ω   1105   2632       91     1020   182 {0}      {}
	// n=2 free, short tD  FD-Ω    595   1378       49      510    98 {0}      {}
	// n=2 S-algo, crash 1 FD-P   1617   3468       77     1216    80 {0}      {1}
	// n=3 S-algo, crash 2 FD-P 230890 828706      496    50942   992 {0}      {2}
}

// What partial-order reduction buys on the golden configurations (E18):
// nodes and edges of the full and the reduced graph, the steps the ample
// sets pruned, and the node ratio.  Both graphs yield the same hooks.
// The figures are goldenStats, which TestGoldenStats checks against
// exploration at one and two workers.
func ExampleExplorer_reduction() {
	fmt.Printf("%-19s %6s %7s %6s %7s %6s %5s %5s\n",
		"config", "nodes", "reduced", "edges", "reduced", "pruned", "ratio", "hooks")
	for _, g := range goldenStats {
		fmt.Printf("%-19s %6d %7d %6d %7d %6d %4.2fx %5d\n", g.name, g.nodes, g.red.nodes,
			g.edges, g.red.edges, g.red.pruned, float64(g.nodes)/float64(g.red.nodes), g.hooks)
	}
	// Output:
	// config               nodes reduced  edges reduced pruned ratio hooks
	// n=2 free              1105    1105   2632    2480    152 1.00x   182
	// n=2 free, short tD     595     595   1378    1286     92 1.00x    98
	// n=2 S-algo, crash 1   1617    1349   3468    2334    569 1.20x    80
	// n=3 S-algo, crash 2 230890   70808 828706  156438  99454 3.26x   992
}

// TestStateSpaceCapTyped checks satellite semantics of the cap, on the
// engine at one and four workers and on the reference explorer: the error
// is the typed *ErrStateSpaceCap, carries the partial count, and fires as
// nodes are created — a graph with exactly cap nodes succeeds.
func TestStateSpaceCapTyped(t *testing.T) {
	explorers := []struct {
		name    string
		explore func(Config) (*Explorer, error)
	}{
		{"workers=1", engineAt(1)},
		{"workers=4", engineAt(4)},
		{"reference", ExploreReference},
	}
	for _, x := range explorers {
		_, err := x.explore(Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 6, nil), MaxNodes: 5})
		var cap *ErrStateSpaceCap
		if !errors.As(err, &cap) {
			t.Fatalf("%s: error = %v, want *ErrStateSpaceCap", x.name, err)
		}
		if cap.Cap != 5 || cap.Nodes < 5 {
			t.Fatalf("%s: cap error = %+v, want Cap=5, Nodes>=5", x.name, cap)
		}
	}
	// A cap equal to the true graph size must succeed.
	cfg := Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 3, nil)}
	ref := explore(t, cfg)
	cfg.MaxNodes = ref.NumNodes()
	for _, x := range explorers {
		exact, err := x.explore(cfg)
		if err != nil {
			t.Fatalf("%s: %v", x.name, err)
		}
		if exact.NumNodes() != ref.NumNodes() {
			t.Fatalf("%s: exact-cap exploration found %d nodes, want %d", x.name, exact.NumNodes(), ref.NumNodes())
		}
	}
}

// engineAt returns an explore function running the engine at w workers.
func engineAt(w int) func(Config) (*Explorer, error) {
	return func(cfg Config) (*Explorer, error) {
		cfg.Workers = w
		e, err := New(cfg)
		if err != nil {
			return nil, err
		}
		return e, e.Explore()
	}
}

// TestExploreReferenceRejectsReduce pins that the reference builds only
// unreduced graphs: reduced ones exist only on the engine.
func TestExploreReferenceRejectsReduce(t *testing.T) {
	cfg := Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 3, nil), Reduce: true}
	if _, err := ExploreReference(cfg); err == nil {
		t.Fatal("ExploreReference accepted Config.Reduce")
	}
}

// TestProgressHook checks the Progress callback fires, is monotone, delivers
// a final Done report, and cancels the exploration when it returns false.
func TestProgressHook(t *testing.T) {
	for _, w := range []int{1, 4} {
		var calls, last int64
		var sawDone bool
		e, err := New(Config{
			N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 6, nil),
			Workers: w, ProgressEvery: 100,
			Progress: func(p Progress) bool {
				calls++
				if p.Nodes < last {
					t.Errorf("workers=%d: progress went backwards: %d after %d", w, p.Nodes, last)
				}
				last = p.Nodes
				if p.Done {
					sawDone = true
				}
				return true
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Explore(); err != nil {
			t.Fatal(err)
		}
		if calls < 2 || !sawDone {
			t.Fatalf("workers=%d: calls=%d sawDone=%v, want several calls ending in Done", w, calls, sawDone)
		}
	}
}

func TestProgressCancel(t *testing.T) {
	for _, w := range []int{1, 4} {
		var fired atomic.Bool
		e, err := New(Config{
			N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 6, nil),
			Workers: w, ProgressEvery: 50,
			Progress: func(p Progress) bool {
				fired.Store(true)
				return false
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Explore(); !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: error = %v, want ErrCanceled", w, err)
		}
		if !fired.Load() {
			t.Fatalf("workers=%d: progress hook never fired", w)
		}
	}
}
