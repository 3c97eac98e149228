package valence

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
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

// TestGoldenStats pins the structural invariants of the four experiment
// configurations (E10–E11): any change to exploration order, memoization, or
// valence propagation that alters the explored graph fails here.
func TestGoldenStats(t *testing.T) {
	golden := []struct {
		name  string
		cfg   Config
		nodes int
		edges int
		biv   int
		fd    int
	}{
		{"n=2 free", Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 6, nil)},
			1105, 2632, 91, 1020},
		{"n=2 free, short tD", Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 3, nil)},
			595, 1378, 49, 510},
		{"n=2 S-algo, crash 1", Config{N: 2, Family: afd.FamilyP, Algo: "s",
			TD: PerfectTD(2, 4, map[ioa.Loc]int{1: 1})},
			1617, 3468, 77, 1216},
		{"n=3 S-algo, crash 2", Config{N: 3, Family: afd.FamilyP, Algo: "s",
			TD:     PerfectTD(3, 2, map[ioa.Loc]int{2: 1}),
			Values: []int{-1, 1, 1}, MaxNodes: 1_500_000},
			230890, 828706, 496, 50942},
	}
	for _, tc := range golden {
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
		})
	}
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
