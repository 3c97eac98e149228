package problems

import (
	"fmt"
	"testing"

	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/system"
	"repro/internal/trace"
)

// runKSet runs the detector-free k-set algorithm and returns the IO trace.
func runKSet(t *testing.T, n, f int, vals []string, crash []ioa.Loc, seed int64, gate int) trace.T {
	t.Helper()
	autos := KSetProcs(n, f)
	autos = append(autos, system.Channels(n)...)
	for i, v := range vals {
		// Reuse the consensus environment shape via a voter-style fixed
		// proposer: EnvInput propose with an arbitrary string payload.
		autos = append(autos, newProposerEnv(ioa.Loc(i), v))
	}
	autos = append(autos, system.NewCrash(system.CrashOf(crash...)))
	sys, err := ioa.NewSystem(autos...)
	if err != nil {
		t.Fatal(err)
	}
	opts := sched.Options{MaxSteps: 50_000}
	if gate > 0 {
		opts.Gate = sched.CrashesAfter(gate, gate)
	}
	if seed >= 0 {
		sched.Random(sys, seed, opts)
	} else {
		sched.RoundRobin(sys, opts)
	}
	return sys.Trace()
}

// proposerEnv proposes a fixed arbitrary string once (the binary
// ConsensusEnv cannot carry arbitrary values).
type proposerEnv struct {
	id      ioa.Loc
	val     string
	stopped bool
}

func newProposerEnv(id ioa.Loc, val string) *proposerEnv { return &proposerEnv{id: id, val: val} }

func (p *proposerEnv) Name() string { return fmt.Sprintf("proposer[%v]", p.id) }
func (p *proposerEnv) Accepts(a ioa.Action) bool {
	if a.Loc != p.id {
		return false
	}
	return a.Kind == ioa.KindCrash || (a.Kind == ioa.KindEnvOut && a.Name == system.ActNameDecide)
}
func (p *proposerEnv) Input(a ioa.Action) {
	if a.Kind == ioa.KindCrash {
		p.stopped = true
	}
}
func (p *proposerEnv) NumTasks() int        { return 1 }
func (p *proposerEnv) TaskLabel(int) string { return "propose" }
func (p *proposerEnv) Enabled(int) (ioa.Action, bool) {
	if p.stopped {
		return ioa.Action{}, false
	}
	return ioa.EnvInput(system.ActNamePropose, p.id, p.val), true
}
func (p *proposerEnv) Fire(ioa.Action) { p.stopped = true }
func (p *proposerEnv) Clone() ioa.Automaton {
	c := *p
	return &c
}
func (p *proposerEnv) AppendEncode(dst []byte) []byte {
	return fmt.Appendf(dst, "PR%v|%s|%t", p.id, p.val, p.stopped)
}

// TestKSetAgreementSolvedWithoutDetector: f < k set agreement is solvable
// asynchronously; the checker validates every run.
func TestKSetAgreementSolvedWithoutDetector(t *testing.T) {
	cases := []struct {
		n, f  int
		vals  []string
		crash []ioa.Loc
	}{
		{3, 1, []string{"a", "b", "c"}, nil},
		{3, 1, []string{"a", "b", "c"}, []ioa.Loc{2}},
		{5, 2, []string{"e", "d", "c", "b", "a"}, []ioa.Loc{0, 4}},
	}
	for _, tc := range cases {
		for _, seed := range []int64{-1, 1, 7} {
			tr := runKSet(t, tc.n, tc.f, tc.vals, tc.crash, seed, 20)
			spec := KSetAgreement{N: tc.n, K: tc.f + 1}
			// A crash may leave a planned-crash location undecided; count
			// live decisions only when the run is complete.
			crashed := trace.Faulty(tr)
			complete := true
			decided := make(map[ioa.Loc]bool)
			for _, a := range Decisions(tr) {
				decided[a.Loc] = true
			}
			for i := 0; i < tc.n; i++ {
				if !crashed.Has(ioa.Loc(i)) && !decided[ioa.Loc(i)] {
					complete = false
				}
			}
			if !complete {
				t.Fatalf("n=%d f=%d crash=%v seed=%d: live location undecided", tc.n, tc.f, tc.crash, seed)
			}
			if err := spec.Check(tr, true); err != nil {
				t.Fatalf("n=%d f=%d crash=%v seed=%d: %v", tc.n, tc.f, tc.crash, seed, err)
			}
		}
	}
}

// TestKSetDistinctValuesBound: the decision spread never exceeds f+1 even
// under adversarially diverse proposals and schedules.
func TestKSetDistinctValuesBound(t *testing.T) {
	const n, f = 5, 2
	for seed := int64(0); seed < 20; seed++ {
		tr := runKSet(t, n, f, []string{"v0", "v1", "v2", "v3", "v4"}, []ioa.Loc{1, 3}, seed, 5)
		vals := make(map[string]bool)
		for _, a := range Decisions(tr) {
			vals[a.Payload] = true
		}
		if len(vals) > f+1 {
			t.Fatalf("seed %d: %d distinct decisions > f+1 = %d", seed, len(vals), f+1)
		}
	}
}

// Decisions re-exported for tests (consensus.Decisions works on any trace).
func Decisions(t trace.T) []ioa.Action { return consensus.Decisions(t) }
