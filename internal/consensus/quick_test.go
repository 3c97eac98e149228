package consensus_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/afd"
	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/system"
)

// TestQuickCTConsensus (testing/quick): the rotating-coordinator algorithm
// satisfies the §9.1 specification for random detector choices, minority
// crash subsets, crash timings, proposal vectors, and schedule seeds.
func TestQuickCTConsensus(t *testing.T) {
	fams := []string{afd.FamilyP, afd.FamilyEvP, afd.FamilyEvS, afd.FamilyOmega}
	prop := func(famIdx, crashPick, gatePick uint8, valBits uint8, seed int64) bool {
		const n = 3
		fam := fams[int(famIdx)%len(fams)]
		// At most one crash (f = 1 for n = 3); crashPick may select none.
		var crash []ioa.Loc
		if crashPick%4 < 3 {
			crash = []ioa.Loc{ioa.Loc(crashPick % 3)}
		}
		vals := make([]int, n)
		for i := range vals {
			vals[i] = int(valBits>>i) & 1
		}
		if seed < 0 {
			seed = -seed
		}
		_, err := judge(withValues("consensus:", fam, vals), chaos.Run{
			N: n, Plan: system.CrashOf(crash...), Gates: crashGate(5 + int(gatePick)%60),
			Sched: chaos.SchedRandom, Seed: seed % 1000, Steps: 200_000,
		})
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSConsensus (testing/quick): the S-based flooding algorithm
// satisfies the specification up to f = n−1 crashes under random
// configurations.
func TestQuickSConsensus(t *testing.T) {
	prop := func(crashBits, gatePick, valBits uint8, seed int64) bool {
		const n = 4
		var crash []ioa.Loc
		for i := 0; i < n-1; i++ { // keep location n−1 live
			if crashBits&(1<<i) != 0 {
				crash = append(crash, ioa.Loc(i))
			}
		}
		vals := make([]int, n)
		for i := range vals {
			vals[i] = int(valBits>>i) & 1
		}
		if seed < 0 {
			seed = -seed
		}
		_, err := judge(withValues("smachine:", afd.FamilyP, vals), chaos.Run{
			N: n, Plan: system.CrashOf(crash...), Gates: crashGate(5 + int(gatePick)%50),
			Sched: chaos.SchedRandom, Seed: seed % 1000, Steps: 200_000,
		})
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(22))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
