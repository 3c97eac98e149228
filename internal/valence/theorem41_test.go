package valence

import (
	"strings"
	"testing"

	"repro/internal/afd"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/system"
)

// TestTheorem41 builds RtD for two admissible Ω sequences sharing a prefix:
// t1 is crash-free; t2 crashes location 1 after round 2.  The common prefix
// is the first 2 rounds = 4 events, so the trees must agree on every walk
// of ≤ 4 edges, and must diverge at some greater depth (the crash edge).
func TestTheorem41(t *testing.T) {
	t1 := OmegaTD(2, 6, nil)
	t2 := OmegaTD(2, 6, map[ioa.Loc]int{1: 2})
	common := 0
	for common < len(t1) && common < len(t2) && t1[common] == t2[common] {
		common++
	}
	if common != 4 {
		t.Fatalf("common prefix = %d events, want 4", common)
	}

	e1 := explore(t, Config{N: 2, Family: afd.FamilyOmega, TD: t1})
	e2 := explore(t, Config{N: 2, Family: afd.FamilyOmega, TD: t2})

	if err := EqualToDepth(e1, e2, common, 0); err != nil {
		t.Fatalf("trees differ within the common prefix depth: %v", err)
	}
	// The trees must differ somewhere deeper: the crash edge changes a
	// reachable state.
	deep := EqualToDepth(e1, e2, 40, 0)
	if deep == nil {
		t.Fatal("trees with different tD are equal to depth 40; Theorem 41's converse lost")
	}
	if !strings.Contains(deep.Error(), "diverge") && !strings.Contains(deep.Error(), "actions") {
		t.Fatalf("unexpected divergence kind: %v", deep)
	}
}

func TestEqualToDepthIdentity(t *testing.T) {
	e1 := explore(t, Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 4, nil)})
	e2 := explore(t, Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 4, nil)})
	if err := EqualToDepth(e1, e2, 1_000, 0); err != nil {
		t.Fatalf("identical configurations differ: %v", err)
	}
}

func TestExePathRealizesNode(t *testing.T) {
	e := explore(t, Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 4, nil)})
	// Find a decided node and replay its path on a fresh system: the final
	// encoding must match the node's key (Proposition 29: exe(N) ends in
	// state cN).
	var target NodeID = -1
	for id := 0; id < e.NumNodes(); id++ {
		if len(e.Edges(NodeID(id))) == 0 { // a terminal node
			target = NodeID(id)
			break
		}
	}
	if target < 0 {
		// No terminal nodes (FD self-loops keep everything open); pick any
		// non-root node instead.
		target = 1
	}
	path := e.ExePath(target)
	if len(path) == 0 {
		t.Fatal("empty path to non-root node")
	}

	// Replay on a rebuilt identical system.
	procs, err := consensus.Procs(2, afd.FamilyOmega)
	if err != nil {
		t.Fatal(err)
	}
	autos := procs
	autos = append(autos, system.Channels(2)...)
	autos = append(autos, system.ConsensusEnvs(2)...)
	sys := ioa.MustNewSystem(autos...)
	for _, act := range path {
		owner := -1
		if act.Kind != ioa.KindFD && act.Kind != ioa.KindCrash {
			// Find the owning automaton by matching the enabled action.
			for _, tr := range sys.Tasks() {
				if a, ok := sys.Enabled(tr); ok && a == act {
					owner = tr.Auto
					break
				}
			}
			if owner < 0 {
				t.Fatalf("replay: action %v not enabled", act)
			}
		}
		sys.Apply(owner, act)
	}
	if sys.Encode() != string(e.encs[target]) {
		t.Fatal("replayed execution does not end in the node's config tag (Proposition 29)")
	}
}

func TestEqualToDepthRejectsDifferentSystems(t *testing.T) {
	e2 := explore(t, Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 3, nil)})
	e3 := explore(t, Config{N: 3, Family: afd.FamilyP, Algo: "s",
		TD: PerfectTD(3, 1, nil), Values: []int{0, 0, 0}})
	if err := EqualToDepth(e2, e3, 1, 0); err == nil {
		t.Fatal("different compositions compared equal")
	}
}

func TestEqualToDepthPairCap(t *testing.T) {
	e1 := explore(t, Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 4, nil)})
	e2 := explore(t, Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 4, nil)})
	if err := EqualToDepth(e1, e2, 1000, 5); err == nil {
		t.Fatal("tiny pair cap must abort the comparison")
	}
}

func TestExePathRoot(t *testing.T) {
	e := explore(t, Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 2, nil)})
	if got := e.ExePath(e.Root()); len(got) != 0 {
		t.Fatalf("root path = %v, want empty", got)
	}
}
