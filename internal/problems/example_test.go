package problems_test

import (
	"fmt"

	"repro/internal/afd"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/problems"
	"repro/internal/system"
	"repro/internal/trace"
)

// Uniform Reliable Broadcast (§1.1), solved twice and checked: the
// detector-free majority-diffusion algorithm (f < n/2), and the variant
// over P that rides out n−1 crashes.
func ExampleURBSpec() {
	for _, tc := range []struct {
		label   string
		perfect bool
		n       int
		crash   []ioa.Loc
	}{
		{"majority diffusion, no detector, f<n/2", false, 3, []ioa.Loc{2}},
		{"majority diffusion, no detector, f<n/2", false, 5, []ioa.Loc{0, 4}},
		{"over P, f≤n−1", true, 3, []ioa.Loc{0, 1}},
		{"over P, f≤n−1", true, 4, []ioa.Loc{1, 2, 3}},
	} {
		n := tc.n
		procs := problems.URBMajorityProcs(n)
		var det []ioa.Automaton
		if tc.perfect {
			procs, _ = problems.URBPerfectProcs(n, afd.FamilyP)
			d, _ := afd.Lookup(afd.FamilyP, n)
			det = append(det, d.Automaton(n))
		}
		autos := append(procs, system.Channels(n)...)
		for i := 0; i < n; i++ {
			autos = append(autos, problems.NewBroadcasterEnv(ioa.Loc(i), fmt.Sprintf("m%d", i)))
		}
		autos = append(append(autos, det...), system.NewCrash(system.CrashOf(tc.crash...)))
		tr := urbProject(drive(ioa.MustNewSystem(autos...), -1, 30_000, 20))
		err := problems.URBSpec{N: n}.Check(tr, true)
		delivers := trace.Count(tr, func(a ioa.Action) bool { return a.Kind == ioa.KindEnvOut })
		fmt.Printf("URB %-38s n=%d crashes=%d: %2d deliveries, uniform agreement: %t\n",
			tc.label, n, len(tc.crash), delivers, err == nil)
	}
	// Output:
	// URB majority diffusion, no detector, f<n/2 n=3 crashes=1:  6 deliveries, uniform agreement: true
	// URB majority diffusion, no detector, f<n/2 n=5 crashes=2: 15 deliveries, uniform agreement: true
	// URB over P, f≤n−1                          n=3 crashes=2:  3 deliveries, uniform agreement: true
	// URB over P, f≤n−1                          n=4 crashes=3:  4 deliveries, uniform agreement: true
}

// Terminating Reliable Broadcast (§7.3) over P from sender 0, checked with
// a live and with a crashing sender.  Every location delivers the same
// verdict; the crashing sender here dies after its value got out, so the
// verdict is the value, not "sender faulty".
func ExampleTRBSpec() {
	const n = 3
	for _, tc := range []struct {
		label string
		crash []ioa.Loc
		gate  int
	}{
		{"live sender", nil, 0},
		{"crashing sender", []ioa.Loc{0}, 10},
	} {
		procs, _ := problems.TRBProcs(n, 0, afd.FamilyP)
		d, _ := afd.Lookup(afd.FamilyP, n)
		autos := append(procs, system.Channels(n)...)
		autos = append(autos, problems.NewTRBSenderEnv(0, "the-value"), d.Automaton(n),
			system.NewCrash(system.CrashOf(tc.crash...)))
		tr := trbProject(drive(ioa.MustNewSystem(autos...), -1, 60_000, tc.gate))
		if err := (problems.TRBSpec{N: n, Sender: 0}).Check(tr, true); err != nil {
			fmt.Println("TRB", tc.label, err)
			continue
		}
		agreed, delivers := "(none)", 0
		for _, a := range tr {
			if a.Kind == ioa.KindEnvOut {
				if delivers == 0 {
					agreed = a.Payload
				}
				delivers++
			}
		}
		fmt.Printf("TRB %-38s n=%d crashes=%d: %d deliveries, agreed verdict %q\n",
			tc.label, n, len(tc.crash), delivers, agreed)
	}
	// Output:
	// TRB live sender                            n=3 crashes=0: 3 deliveries, agreed verdict "the-value"
	// TRB crashing sender                        n=3 crashes=1: 2 deliveries, agreed verdict "the-value"
}

// The long-lived counterpart to the paper's bounded problems.  Theorem 21
// (Section 7.3) shows bounded problems such as consensus have no
// representative AFD; long-lived ones such as mutual exclusion under
// eventual weak exclusion (Lemma 20) do.  The token-circulation ◇-mutex
// runs over P and over ◇P: P's perpetual accuracy admits no exclusion
// violation, ◇P's inaccuracy window admits transient ones before the
// guaranteed exclusive suffix.
func ExampleMutexSpec() {
	const n = 3
	for _, tc := range []struct {
		label  string
		family string
		crash  []ioa.Loc
	}{
		{"P, failure-free", afd.FamilyP, nil},
		{"P, location 1 crashes", afd.FamilyP, []ioa.Loc{1}},
		{"◇P, failure-free", afd.FamilyEvP, nil},
		{"◇P, location 2 crashes", afd.FamilyEvP, []ioa.Loc{2}},
	} {
		procs, _ := problems.MutexProcs(n, tc.family)
		d, _ := afd.Lookup(tc.family, n)
		autos := append(procs, system.Channels(n)...)
		autos = append(autos, d.Automaton(n), system.NewCrash(system.CrashOf(tc.crash...)))
		tr := mutexProject(drive(ioa.MustNewSystem(autos...), -1, 6000, 60))
		if err := (problems.MutexSpec{N: n, Window: 2}).Check(tr); err != nil {
			fmt.Println(tc.label, "◇-exclusion violated:", err)
			continue
		}
		enters := 0
		for _, c := range problems.MutexRounds(tr) {
			enters += c
		}
		fmt.Printf("%-24s %4d critical sections, %2d transient exclusion violations\n",
			tc.label, enters, problems.MutexExclusionViolations(tr))
	}
	// Output:
	// P, failure-free           261 critical sections,  0 transient exclusion violations
	// P, location 1 crashes     333 critical sections,  0 transient exclusion violations
	// ◇P, failure-free          268 critical sections,  5 transient exclusion violations
	// ◇P, location 2 crashes    339 critical sections,  5 transient exclusion violations
}

// Detector-free (f+1)-set agreement (§7.3, EXPERIMENTS.md E12): the
// registry's kset target, whose proposals alternate 0,1,0,1,…, tolerates
// f < k crashes without a failure detector.  Every run here decides a
// single value, so these rows show termination and validity but do not
// stress the k-agreement clause.
func ExampleKSetAgreement() {
	fmt.Printf("%-13s %s %7s %8s  %s\n", "problem", "n", "crashes", "distinct", "verdict")
	for _, tc := range []struct {
		n, f  int
		crash []ioa.Loc
	}{
		{3, 1, nil},
		{3, 1, []ioa.Loc{2}},
		{5, 2, []ioa.Loc{0, 4}},
	} {
		sys, err := compose("kset", tc.n, tc.crash...)
		if err != nil {
			fmt.Println("kset:", err)
			return
		}
		tr := consensus.ProjectIO(drive(sys, -1, 50_000, 20))
		distinct := make(map[string]bool)
		for _, a := range consensus.Decisions(tr) {
			distinct[a.Payload] = true
		}
		err = problems.KSetAgreement{N: tc.n, K: tc.f + 1}.Check(tr, true)
		fmt.Printf("(f+1)-set f=%d %d %7d %8d  %s\n", tc.f, tc.n, len(tc.crash), len(distinct), verdict(err))
	}
	// Output:
	// problem       n crashes distinct  verdict
	// (f+1)-set f=1 3       0        1  ok
	// (f+1)-set f=1 3       1        1  ok
	// (f+1)-set f=2 5       2        1  ok
}

// Non-blocking atomic commit over P (§7.3, EXPERIMENTS.md E12): commit
// when every vote is yes and nobody crashes, abort on a no vote, and
// abort rather than block when a voter crashes.
func ExampleNBAC() {
	fmt.Printf("%-12s %7s %-7s %s\n", "target", "crashes", "outcome", "verdict")
	for _, tc := range []struct {
		votes string // one digit per location: 1 yes, 0 no
		crash []ioa.Loc
	}{
		{"111", nil},
		{"101", nil},
		{"111", []ioa.Loc{2}},
	} {
		sys, err := compose("nbac@"+tc.votes, 3, tc.crash...)
		if err != nil {
			fmt.Println("nbac:", err)
			return
		}
		tr := drive(sys, -1, 100_000, 5)
		outcome := "(none)"
		for _, a := range tr {
			if a.Kind == ioa.KindEnvOut && a.Name == problems.ActNameOutcome {
				outcome = a.Payload
				break
			}
		}
		fmt.Printf("%-12s %7d %-7s %s\n", "nbac@"+tc.votes, len(tc.crash), outcome,
			verdict(problems.NBAC{N: 3}.Check(tr, true)))
	}
	// Output:
	// target       crashes outcome verdict
	// nbac@111           0 commit  ok
	// nbac@101           0 abort   ok
	// nbac@111           1 abort   ok
}

// verdict renders a checker's result.
func verdict(err error) string {
	if err != nil {
		return "FAIL: " + err.Error()
	}
	return "ok"
}
