package chaos_test

import (
	"fmt"

	"repro/internal/chaos"
)

// The CI-sized property-survival survey (§2.3 channels relaxed,
// EXPERIMENTS.md E17), end to end: every cell runs under a stride-1
// differential oracle with channel shadows and its artifact replays
// bit-for-bit through both engines, so the grid is clean; the reliable
// baseline survives everywhere (negative control), and heavy loss costs
// plain gossip its strong completeness (positive control).
func ExampleSurvey() {
	const steps = 1200
	rep, err := chaos.Survey(chaos.SurveyConfig{
		N:         4,
		Seeds:     1,
		Steps:     steps,
		Targets:   chaos.SurveyShortTargets(),
		Scenarios: chaos.SurveyShortScenarios(4, steps),
	})
	if err != nil {
		fmt.Println("survey:", err)
		return
	}
	fmt.Print(rep.Table())
	fmt.Println("clean:", rep.Clean())
	if err := rep.Control(); err != nil {
		fmt.Println("controls:", err)
		return
	}
	fmt.Println("controls hold")
	// Output:
	// property survival, n=4 steps=1200 (20 cells)
	// scenario    target                   runs  result
	// baseline    gossip:FD-Q>FD-P            6  ok
	// baseline    gossip:FD-◇Q>FD-◇P>FD-Ω     6  ok
	// baseline    gossip:FD-Q>FD-P>FD-Σ       6  ok
	// baseline    relay:FD-Q>FD-P             6  ok
	// drop-heavy  gossip:FD-Q>FD-P            6  LOST (strong completeness) [2/6]
	// drop-heavy  gossip:FD-◇Q>FD-◇P>FD-Ω     6  ok
	// drop-heavy  gossip:FD-Q>FD-P>FD-Σ       6  LOST afd: Σ quorums never stabilize to live locations [2/6]
	// drop-heavy  relay:FD-Q>FD-P             6  ok
	// ring        gossip:FD-Q>FD-P            6  LOST (strong completeness) [2/6]
	// ring        gossip:FD-◇Q>FD-◇P>FD-Ω     6  ok
	// ring        gossip:FD-Q>FD-P>FD-Σ       6  LOST afd: Σ quorums never stabilize to live locations [2/6]
	// ring        relay:FD-Q>FD-P             6  ok
	// heal        gossip:FD-Q>FD-P            6  ok
	// heal        gossip:FD-◇Q>FD-◇P>FD-Ω     6  ok
	// heal        gossip:FD-Q>FD-P>FD-Σ       6  ok
	// heal        relay:FD-Q>FD-P             6  ok
	// split       gossip:FD-Q>FD-P            6  ok
	// split       gossip:FD-◇Q>FD-◇P>FD-Ω     6  ok
	// split       gossip:FD-Q>FD-P>FD-Σ       6  ok
	// split       relay:FD-Q>FD-P             6  ok
	// clean: true
	// controls hold
}
