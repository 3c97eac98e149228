package live

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/ioa"
	"repro/internal/system"
)

// conformanceCase is one row of the live-vs-simulated conformance table.
type conformanceCase struct {
	target string
	n      int
	crash  []int // locations crashed mid-execution
	net    system.NetSpec
}

// runConformance executes one live run with retries on infrastructure
// failures only — a port collision is environment noise, a checker or
// replay verdict never is.  The replay that followed the run must reach the
// verdict chaos.ReplayThroughSystem reaches on the finished artifact.
func runConformance(t *testing.T, spec RunSpec) *Report {
	t.Helper()
	const attempts = 3
	var lastErr error
	for i := 0; i < attempts; i++ {
		rep, err := RunTarget(spec)
		if err == nil {
			if after := chaos.ReplayThroughSystem(rep.Artifact); fmt.Sprint(after) != fmt.Sprint(rep.ReplayErr) {
				t.Errorf("the replay that followed the run reported %v; on the finished artifact it reports %v",
					rep.ReplayErr, after)
			}
			return rep
		}
		if !errors.Is(err, ErrInfra) {
			t.Fatalf("RunTarget: %v", err)
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("RunTarget: infra failure persisted across %d attempts: %v", attempts, lastErr)
	return nil
}

// TestConformanceTable runs every target stack live with fixed transport
// seeds, replays each artifact through the simulated engine, and asserts
// the checker verdicts — the live backend and the simulated backend must
// agree that every live execution is a valid execution of the composition
// satisfying the target's specification.
func TestConformanceTable(t *testing.T) {
	cases := []conformanceCase{
		{target: "gossip:FD-Q>FD-P", n: 3},
		{target: "gossip:FD-◇Q>FD-◇P", n: 3},
		{target: "gossip:FD-◇Q>FD-◇P>FD-Ω", n: 3},
		{target: "urb:majority", n: 3},
		{target: "urb:P", n: 3},
		{target: "nbac", n: 3},
		{target: "trb", n: 3},
		// At n=2 kset's binary proposals can break k-agreement (k=1).
		{target: "kset", n: 2},
		// Crash-mid-execution rows: the crash service releases the planned
		// crash partway through the run.
		{target: "gossip:FD-Q>FD-P", n: 3, crash: []int{2}},
		{target: "gossip:FD-◇Q>FD-◇P>FD-Ω", n: 4, crash: []int{1}},
		{target: "urb:majority", n: 3, crash: []int{0}},
		{target: "urb:P", n: 3, crash: []int{1}},
		{target: "nbac", n: 3, crash: []int{2}},
		{target: "trb", n: 3, crash: []int{0}},
		{target: "kset", n: 3, crash: []int{2}},
	}
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, tc := range cases {
		for _, seed := range seeds {
			tc, seed := tc, seed
			name := fmt.Sprintf("%s/n=%d/crash=%v/seed=%d", tc.target, tc.n, tc.crash, seed)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				plan := system.FaultPlan{}
				for _, l := range tc.crash {
					plan.Crash = append(plan.Crash, ioa.Loc(l))
				}
				rep := runConformance(t, RunSpec{
					Target: mustTarget(t, tc.target),
					N:      tc.n,
					Plan:   plan,
					Net:    tc.net,
					Opts: Options{
						Seed:       seed,
						Duration:   20 * time.Second,
						CrashAfter: 2 * time.Millisecond,
					},
				})
				if rep.VerdictErr != nil {
					t.Errorf("checker verdict on live trace: %v", rep.VerdictErr)
				}
				if rep.ReplayErr != nil {
					t.Errorf("cross-engine replay: %v", rep.ReplayErr)
				}
				if len(rep.Artifact.Trace) == 0 {
					t.Errorf("empty live trace")
				}
			})
		}
	}
}

// TestConformanceTCP pins one representative row per stack kind onto the
// TCP transport: the same executions must validate when delivery signals
// cross real loopback sockets.
func TestConformanceTCP(t *testing.T) {
	targets := []string{"gossip:FD-◇Q>FD-◇P>FD-Ω", "urb:majority"}
	for _, id := range targets {
		id := id
		t.Run(id, func(t *testing.T) {
			const attempts = 3
			for i := 0; i < attempts; i++ {
				tcp, err := NewTCPTransport()
				if err != nil {
					if errors.Is(err, ErrInfra) && i < attempts-1 {
						time.Sleep(10 * time.Millisecond)
						continue
					}
					t.Fatalf("NewTCPTransport: %v", err)
				}
				rep := runConformance(t, RunSpec{
					Target: mustTarget(t, id),
					N:      3,
					Opts:   Options{Seed: 11, Duration: 20 * time.Second, Transport: tcp},
				})
				if rep.VerdictErr != nil {
					t.Errorf("checker verdict on live TCP trace: %v", rep.VerdictErr)
				}
				if rep.ReplayErr != nil {
					t.Errorf("cross-engine replay: %v", rep.ReplayErr)
				}
				return
			}
		})
	}
}

// TestConformanceLossyNet runs a live execution whose channels drop and
// duplicate messages via the same pure NetSpec decisions as simulated runs;
// the artifact must still replay byte-identical (the replay re-derives the
// identical link outcomes from the recorded spec).  The forwarding relay
// target tolerates loss, so the checker verdict must hold too.
func TestConformanceLossyNet(t *testing.T) {
	rep := runConformance(t, RunSpec{
		Target: mustTarget(t, "relay:FD-◇Q>FD-◇P"),
		N:      3,
		Net:    system.NetSpec{Seed: 9, Drop: 100, Dup: 50},
		Opts:   Options{Seed: 13, Duration: 20 * time.Second},
	})
	if rep.ReplayErr != nil {
		t.Errorf("cross-engine replay of lossy live run: %v", rep.ReplayErr)
	}
	if rep.VerdictErr != nil {
		t.Errorf("relay under 10%% drop: %v", rep.VerdictErr)
	}
	if rep.Artifact.Net == nil {
		t.Fatalf("lossy artifact lost its NetWire")
	}
}

// TestConformancePermanentPartition: a partition that never heals downgrades
// the run to safety-only checking (Fair=false), and the prefix still
// replays through the simulated engine.
func TestConformancePermanentPartition(t *testing.T) {
	rep := runConformance(t, RunSpec{
		Target: mustTarget(t, "gossip:FD-◇Q>FD-◇P"),
		N:      3,
		Opts: Options{
			Seed:           17,
			Duration:       50 * time.Millisecond,
			PartitionMask:  0b001, // location 0 isolated
			PartitionAfter: 5 * time.Millisecond,
		},
	})
	if rep.Fair {
		t.Errorf("permanently partitioned run reported fair")
	}
	if rep.VerdictErr != nil {
		t.Errorf("safety clauses under partition: %v", rep.VerdictErr)
	}
	if rep.ReplayErr != nil {
		t.Errorf("cross-engine replay of partitioned prefix: %v", rep.ReplayErr)
	}
}

// TestConformanceHealedPartition: a healed partition restores fairness, so
// the full spec (liveness included) must hold.
func TestConformanceHealedPartition(t *testing.T) {
	rep := runConformance(t, RunSpec{
		Target: mustTarget(t, "gossip:FD-◇Q>FD-◇P>FD-Ω"),
		N:      3,
		Opts: Options{
			Seed:           19,
			Duration:       20 * time.Second,
			PartitionMask:  0b100,
			PartitionAfter: 2 * time.Millisecond,
			HealAfter:      10 * time.Millisecond,
		},
	})
	if !rep.Fair {
		t.Errorf("healed run reported unfair")
	}
	if rep.VerdictErr != nil {
		t.Errorf("full spec after heal: %v", rep.VerdictErr)
	}
	if rep.ReplayErr != nil {
		t.Errorf("cross-engine replay: %v", rep.ReplayErr)
	}
}
