package valence_test

import (
	"fmt"

	"repro/internal/afd"
	"repro/internal/valence"
)

// The tagged execution tree RtD of Section 8 for a two-location consensus
// system driven by a fixed Ω sequence: node valences, the checks of
// Lemma 52 and Proposition 50 on every node, and the hooks of Section 9.6.1
// — the spots where a bivalent execution is forced univalent — each
// verified against Theorem 59: both hook edges are non-⊥ actions (Lemma 56)
// at one location (Lemma 57) that is live in tD (Lemma 58).
func ExampleExplorer() {
	tD := valence.OmegaTD(2, 6, nil)
	if err := (afd.Omega{}).Check(tD, 2, afd.DefaultWindow()); err != nil {
		fmt.Println("tD ∉ TΩ:", err)
		return
	}
	e, err := valence.New(valence.Config{N: 2, Family: afd.FamilyOmega, TD: tD})
	if err != nil {
		fmt.Println("new:", err)
		return
	}
	if err := e.Explore(); err != nil {
		fmt.Println("explore:", err)
		return
	}
	st := e.Stats()
	fmt.Printf("quotient of RtD: %d nodes, %d edges\n", st.Nodes, st.Edges)
	fmt.Printf("valences: %d bivalent, %d 0-valent, %d 1-valent\n", st.Bivalent, st.ZeroVal, st.OneVal)
	fmt.Printf("root: %v (Proposition 51)\n", e.Valence(e.Root()))
	fmt.Println("Lemma 52 and Proposition 50 hold on every node:",
		e.CheckLemma52() == nil && e.CheckProposition50() == nil)
	for _, h := range e.FindHooks(3) {
		fmt.Println(h, "verified:", e.VerifyHook(h) == nil)
	}
	// Output:
	// quotient of RtD: 1105 nodes, 2632 edges
	// valences: 91 bivalent, 507 0-valent, 507 1-valent
	// root: bivalent (Proposition 51)
	// Lemma 52 and Proposition 50 hold on every node: true
	// hook(node=0, l=4 via propose(0)_0, r=5 via propose(1)_0, v=0-valent, critical=0) verified: true
	// hook(node=0, l=5 via propose(1)_0, r=4 via propose(0)_0, v=1-valent, critical=0) verified: true
	// hook(node=1, l=4 via propose(0)_0, r=5 via propose(1)_0, v=0-valent, critical=0) verified: true
}
