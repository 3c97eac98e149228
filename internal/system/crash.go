package system

import (
	"fmt"
	"strings"

	"repro/internal/ioa"
)

// FaultPlan declares which locations may crash during a run.  The crash
// automaton of Section 4.4 has *every* sequence over Iˆ as a fair trace; a
// FaultPlan selects the particular fault pattern a run realizes, and the
// scheduler controls the timing (including never scheduling an enabled crash
// before the run's step bound, or scheduling it adversarially).
type FaultPlan struct {
	// Crash lists the locations that crash, in the order their crash tasks
	// become enabled.  Duplicates are allowed (the crash automaton may emit
	// crashi repeatedly); only the first occurrence matters to recipients.
	Crash []ioa.Loc
}

// NoFaults is the empty fault plan.
func NoFaults() FaultPlan { return FaultPlan{} }

// CrashOf returns a plan crashing exactly the given locations once each.
func CrashOf(locs ...ioa.Loc) FaultPlan { return FaultPlan{Crash: locs} }

// MaxFaulty returns the number of distinct locations the plan crashes.
func (p FaultPlan) MaxFaulty() int {
	var seen ioa.LocSet
	for _, l := range p.Crash {
		seen.Add(l)
	}
	return seen.Len()
}

// String renders the plan compactly, e.g. "crash{0,2}" or "crash{}".
func (p FaultPlan) String() string {
	locs := make([]string, len(p.Crash))
	for i, l := range p.Crash {
		locs[i] = l.String()
	}
	return "crash{" + strings.Join(locs, ",") + "}"
}

// WithoutCrash returns a copy of the plan with the k-th planned crash event
// removed (the shrinker's elementary reduction step).  Out-of-range k
// returns the plan unchanged.
func (p FaultPlan) WithoutCrash(k int) FaultPlan {
	if k < 0 || k >= len(p.Crash) {
		return p
	}
	out := make([]ioa.Loc, 0, len(p.Crash)-1)
	out = append(out, p.Crash[:k]...)
	out = append(out, p.Crash[k+1:]...)
	return FaultPlan{Crash: out}
}

// PlanSubsets enumerates fault plans crashing a subset of locations 0..n-1
// with at most maxT distinct crashes, each location at most once, in
// deterministic order (by subset size, then lexicographically), and stops
// after limit plans (limit <= 0: no limit).  The empty plan comes first.
// The full count is sum_{k<=maxT} C(n,k); callers keep n and maxT small,
// pass a limit, or sample with a PRNG instead.
func PlanSubsets(n, maxT, limit int) []FaultPlan {
	if maxT > n {
		maxT = n
	}
	var out []FaultPlan
	full := func() bool { return limit > 0 && len(out) >= limit }
	var rec func(start int, cur []ioa.Loc, want int)
	rec = func(start int, cur []ioa.Loc, want int) {
		if len(cur) == want {
			out = append(out, CrashOf(append([]ioa.Loc(nil), cur...)...))
			return
		}
		for i := start; i < n && !full(); i++ {
			rec(i+1, append(cur, ioa.Loc(i)), want)
		}
	}
	for k := 0; k <= maxT && !full(); k++ {
		rec(0, nil, k)
	}
	return out
}

// CrashAutomaton realizes the crash automaton C of Section 4.4 restricted to
// a fault plan: it has one task per planned crash event; task k is enabled
// once tasks 0..k-1 have fired.  Sequencing the tasks keeps the fault
// pattern deterministic while leaving all timing freedom to the scheduler.
// A plan with no crashes has no enabled tasks, so never crashing is fair.
type CrashAutomaton struct {
	plan  FaultPlan
	fired int // number of planned crash events already emitted
}

var _ ioa.Automaton = (*CrashAutomaton)(nil)
var _ ioa.Signatured = (*CrashAutomaton)(nil)

// NewCrash returns a crash automaton for the given plan.
func NewCrash(plan FaultPlan) *CrashAutomaton {
	return &CrashAutomaton{plan: plan}
}

// Name implements ioa.Automaton.
func (c *CrashAutomaton) Name() string { return "crash-automaton" }

// Accepts implements ioa.Automaton: the crash automaton has no inputs.
func (c *CrashAutomaton) Accepts(ioa.Action) bool { return false }

// SignatureKeys implements ioa.Signatured: the empty signature, so the
// routing index never offers the crash automaton anything.
func (c *CrashAutomaton) SignatureKeys() []ioa.SigKey { return nil }

// Input implements ioa.Automaton.
func (c *CrashAutomaton) Input(ioa.Action) {}

// NumTasks implements ioa.Automaton.
func (c *CrashAutomaton) NumTasks() int { return len(c.plan.Crash) }

// TaskLabel implements ioa.Automaton.
func (c *CrashAutomaton) TaskLabel(t int) string {
	return fmt.Sprintf("crash_%v#%d", c.plan.Crash[t], t)
}

// Enabled implements ioa.Automaton: only the next planned crash is enabled.
func (c *CrashAutomaton) Enabled(t int) (ioa.Action, bool) {
	if t != c.fired || t >= len(c.plan.Crash) {
		return ioa.Action{}, false
	}
	return ioa.Crash(c.plan.Crash[t]), true
}

// Fire implements ioa.Automaton.
func (c *CrashAutomaton) Fire(ioa.Action) { c.fired++ }

// Remaining reports how many planned crash events have not yet fired.
func (c *CrashAutomaton) Remaining() int { return len(c.plan.Crash) - c.fired }

// Clone implements ioa.Automaton.
func (c *CrashAutomaton) Clone() ioa.Automaton {
	return &CrashAutomaton{plan: c.plan, fired: c.fired}
}
