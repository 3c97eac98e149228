package chaos

import (
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
)

// SamplePlan draws a fault plan crashing up to maxT distinct locations of
// 0..n-1 uniformly: the crash count is uniform over 0..maxT and the crashed
// set is a uniform partial permutation, so crash *order* varies too (the
// crash automaton sequences events in plan order).
func SamplePlan(rng *sched.PRNG, n, maxT int) system.FaultPlan {
	if maxT > n {
		maxT = n
	}
	if maxT <= 0 {
		return system.NoFaults()
	}
	k := rng.Intn(maxT + 1)
	perm := make([]ioa.Loc, n)
	for i := range perm {
		perm[i] = ioa.Loc(i)
	}
	// Partial Fisher-Yates: the first k entries are a uniform ordered
	// k-subset.
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return system.CrashOf(perm[:k]...)
}

// SampleGates draws a gate spec for an n-location run with the given step
// bound.  Each perturbation appears with moderate probability and bounded
// magnitude (delays ≤ steps/8, starvation ≤ steps/4, crash release within
// the first half) so fair-schedule runs keep enough post-perturbation
// budget to satisfy liveness clauses.
func SampleGates(rng *sched.PRNG, n, steps int) GateSpec {
	g := NoGates()
	if rng.Intn(2) == 0 {
		g.CrashAfter = rng.Intn(steps/2 + 1)
		g.CrashGap = rng.Intn(steps/8 + 1)
	}
	if rng.Intn(2) == 0 {
		g.DelayNth = 1 + rng.Intn(5)
		g.DelayFor = 1 + rng.Intn(max(1, steps/8))
	}
	if n >= 2 && rng.Intn(4) == 0 {
		g.StarveFrom = rng.Intn(n)
		g.StarveTo = (g.StarveFrom + 1 + rng.Intn(n-1)) % n
		g.StarveUntil = 1 + rng.Intn(max(1, steps/4))
	}
	if n >= 2 && n <= 63 && rng.Intn(4) == 0 {
		// A healing partition: the mask is a uniform proper non-empty
		// subset of the locations, and the heal lands by steps/2 so fair
		// runs keep a full post-heal budget for liveness clauses (a
		// never-healing partition is survey territory, not sweep noise —
		// it downgrades the checker to safety-only).
		g.PartitionMask = uint64(1 + rng.Intn((1<<uint(n))-2))
		g.PartitionAt = rng.Intn(max(1, steps/4))
		g.HealAt = g.PartitionAt + 1 + rng.Intn(max(1, steps/4))
	}
	return g
}
