package problems_test

import (
	"fmt"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/problems"
	"repro/internal/system"
	"repro/internal/trace"
)

// Uniform Reliable Broadcast (§1.1), solved twice and checked: the
// detector-free majority-diffusion algorithm (f < n/2), and the variant
// over P that rides out n−1 crashes.
func ExampleURBSpec() {
	const n = 3
	for _, tc := range []struct {
		label   string
		perfect bool
		crash   []ioa.Loc
	}{
		{"majority diffusion, no detector, f<n/2", false, []ioa.Loc{2}},
		{"over P, f≤n−1", true, []ioa.Loc{0, 1}},
	} {
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
	// URB over P, f≤n−1                          n=3 crashes=2:  3 deliveries, uniform agreement: true
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
		verdict := "(none)"
		for _, a := range tr {
			if a.Kind == ioa.KindEnvOut {
				verdict = a.Payload
				break
			}
		}
		fmt.Printf("TRB %-38s n=%d crashes=%d: agreed verdict %q\n", tc.label, n, len(tc.crash), verdict)
	}
	// Output:
	// TRB live sender                            n=3 crashes=0: agreed verdict "the-value"
	// TRB crashing sender                        n=3 crashes=1: agreed verdict "the-value"
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
