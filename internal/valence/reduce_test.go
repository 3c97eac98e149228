package valence

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
)

// reduceConfigs are the E10–E11 golden configurations the reduction is
// validated against (the same four TestGoldenStats pins).
func reduceConfigs() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"omega n=2 free", Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 6, nil)}},
		{"omega n=2 short", Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 3, nil)}},
		{"perfect s n=2 crash", Config{N: 2, Family: afd.FamilyP, Algo: "s",
			TD: PerfectTD(2, 4, map[ioa.Loc]int{1: 1})}},
		{"perfect s n=3 crash", Config{N: 3, Family: afd.FamilyP, Algo: "s",
			TD:     PerfectTD(3, 2, map[ioa.Loc]int{2: 1}),
			Values: []int{-1, 1, 1}, MaxNodes: 1_500_000, Workers: 4}},
	}
}

// nodeKey identifies a node across differently explored graphs.
func nodeKey(e *Explorer, id NodeID) string {
	return fmt.Sprintf("%d|%s", e.NodeFD(id), e.NodeEncoding(id))
}

// hookKeys renders a graph's hooks in a graph-independent, sortable form.
func hookKeys(e *Explorer, hooks []Hook) []string {
	out := make([]string, 0, len(hooks))
	for _, h := range hooks {
		out = append(out, fmt.Sprintf("%s L=%s(%s) R=%s(%s) v=%d",
			nodeKey(e, h.Node), e.LabelName(h.L), h.LAct, e.LabelName(h.R), h.RAct, h.V))
	}
	sort.Strings(out)
	return out
}

// TestReduceVerdictsMatchFull is the core soundness check, in-unit (the
// oracle's DiffReduction re-verifies it with independence justifications):
// on every golden config the reduced graph must classify every surviving
// node exactly as the full graph does, keep the full graph's bivalent count
// (bivalent nodes are never pruned away), and produce the identical hook
// set.
func TestReduceVerdictsMatchFull(t *testing.T) {
	for _, tc := range reduceConfigs() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.N >= 3 && testing.Short() {
				tc.cfg.Workers = 4
			}
			full := explore(t, tc.cfg)
			red := tc.cfg
			red.Reduce = true
			rede := explore(t, red)

			fs, rs := full.Stats(), rede.Stats()
			t.Logf("full: %d nodes / %d edges; reduced: %d nodes / %d edges "+
				"(%d reduced, %d pruned, %d sleep hits, %d rounds, %d+%d forced, %d poisoned)",
				fs.Nodes, fs.Edges, rs.Nodes, rs.Edges, rs.ReducedNodes, rs.PrunedSteps,
				rs.SleepHits, rs.ReduceRounds, rs.ForcedCycle, rs.ForcedBivalent, rs.Poisoned)
			if rs.Nodes > fs.Nodes {
				t.Fatalf("reduced graph larger than full: %d > %d", rs.Nodes, fs.Nodes)
			}
			if rs.Poisoned != 0 {
				t.Errorf("site claims poisoned %d times; composition metadata is wrong", rs.Poisoned)
			}

			// Every reduced node survives in the full graph with the same
			// valence; bivalent and decided-value counts are preserved.
			valences := make(map[string]Valence, fs.Nodes)
			for id := 0; id < fs.Nodes; id++ {
				valences[nodeKey(full, NodeID(id))] = full.Valence(NodeID(id))
			}
			for id := 0; id < rs.Nodes; id++ {
				k := nodeKey(rede, NodeID(id))
				want, ok := valences[k]
				if !ok {
					t.Fatalf("reduced node %d (%s) not in full graph", id, k)
				}
				if got := rede.Valence(NodeID(id)); got != want {
					t.Fatalf("node %d (%s): reduced valence %v, full %v", id, k, got, want)
				}
			}
			if rs.Bivalent != fs.Bivalent {
				t.Errorf("bivalent count: reduced %d, full %d", rs.Bivalent, fs.Bivalent)
			}
			if full.Valence(full.Root()) != rede.Valence(rede.Root()) {
				t.Errorf("root valence: full %v, reduced %v",
					full.Valence(full.Root()), rede.Valence(rede.Root()))
			}

			fh, rh := hookKeys(full, full.FindHooks(0)), hookKeys(rede, rede.FindHooks(0))
			if len(fh) != len(rh) {
				t.Fatalf("hook count: full %d, reduced %d", len(fh), len(rh))
			}
			for i := range fh {
				if fh[i] != rh[i] {
					t.Fatalf("hook %d differs:\nfull:    %s\nreduced: %s", i, fh[i], rh[i])
				}
			}
		})
	}
}

// TestReduceDeterministic pins the reduced engine's worker-count contract:
// identical tables at Workers 1, 2, and 8 (its analysis rounds must renumber
// to the same byte-identical result regardless of scheduling).
func TestReduceDeterministic(t *testing.T) {
	for _, tc := range reduceConfigs() {
		tc := tc
		if tc.cfg.N >= 3 {
			continue // covered at Workers=4 by TestReduceVerdictsMatchFull
		}
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Reduce = true
			ref := tc.cfg
			ref.Workers = 1
			re := explore(t, ref)
			for _, w := range []int{2, 8} {
				par := tc.cfg
				par.Workers = w
				got := explore(t, par)
				tablesEqual(t, re, got)
				if re.Stats() != got.Stats() {
					t.Fatalf("workers=%d: stats ref %+v, got %+v", w, re.Stats(), got.Stats())
				}
			}
		})
	}
}

// TestReduceFullBit checks the FullyExpanded surface: with reduction off it
// is vacuously true; with it on, exactly the non-full nodes report false,
// every bivalent node reports true (the completeness proviso), and a
// reduced node's out-degree is strictly below its enabled-step count.
func TestReduceFullBit(t *testing.T) {
	cfg := Config{N: 2, Family: afd.FamilyP, Algo: "s",
		TD: PerfectTD(2, 4, map[ioa.Loc]int{1: 1}), Reduce: true, Workers: 2}
	e := explore(t, cfg)
	st := e.Stats()
	reduced := 0
	for id := 0; id < st.Nodes; id++ {
		if !e.FullyExpanded(NodeID(id)) {
			reduced++
			if e.Valence(NodeID(id)) == ValBivalent {
				t.Fatalf("bivalent node %d not fully expanded", id)
			}
		}
	}
	if reduced != st.ReducedNodes {
		t.Fatalf("fullbit count %d != ReducedNodes %d", reduced, st.ReducedNodes)
	}
	if reduced == 0 {
		t.Fatal("reduction never fired on the S-algo config")
	}
}
