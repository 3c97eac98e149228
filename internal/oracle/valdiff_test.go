package oracle_test

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/oracle"
	"repro/internal/valence"
)

func TestDiffExplorersClean(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     valence.Config
		workers int
	}{
		{
			name: "omega-n2",
			cfg: valence.Config{
				N: 2, Family: "FD-Ω", Algo: "ct",
				TD: valence.OmegaTD(2, 2, nil),
			},
		},
		{
			name: "omega-n2-crash",
			cfg: valence.Config{
				N: 2, Family: "FD-Ω", Algo: "ct",
				TD: valence.OmegaTD(2, 3, map[ioa.Loc]int{1: 1}),
			},
			workers: 3,
		},
		{
			name: "perfect-n2-s",
			cfg: valence.Config{
				N: 2, Family: "FD-P", Algo: "s",
				TD: valence.PerfectTD(2, 2, nil),
			},
		},
		{
			name: "omega-n2-r4-crash0",
			cfg: valence.Config{
				N: 2, Family: "FD-Ω", Algo: "ct",
				TD: valence.OmegaTD(2, 4, map[ioa.Loc]int{0: 2}),
			},
		},
		{
			// The golden n=3 config of TestDiffReductionClean and the
			// valence-n3 workload.
			name: "perfect-n3-s-crash",
			cfg: valence.Config{
				N: 3, Family: "FD-P", Algo: "s",
				TD:     valence.PerfectTD(3, 2, map[ioa.Loc]int{2: 1}),
				Values: []int{-1, 1, 1}, MaxNodes: 1_500_000,
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.N >= 3 && testing.Short() {
				t.Skip("n=3 differ exceeds -short budget")
			}
			if err := oracle.DiffExplorers(tc.cfg, oracle.DiffOptions{Workers: tc.workers}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
