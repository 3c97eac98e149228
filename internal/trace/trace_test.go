package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ioa"
)

func fd(i ioa.Loc, p string) ioa.Action { return ioa.FDOutput("FD-X", i, p) }
func isOut(a ioa.Action) bool           { return a.Kind == ioa.KindFD && a.Name == "FD-X" }
func crash(i ioa.Loc) ioa.Action        { return ioa.Crash(i) }

// genValid builds a pseudo-random valid FD trace over n locations where the
// locations in faulty crash at random points (outputs stop after crashing).
func genValid(n int, faulty []ioa.Loc, events int, rng *rand.Rand) T {
	crashed := make(map[ioa.Loc]bool)
	pendingCrash := append([]ioa.Loc(nil), faulty...)
	var t T
	for len(t) < events {
		if len(pendingCrash) > 0 && rng.Intn(8) == 0 {
			c := pendingCrash[0]
			pendingCrash = pendingCrash[1:]
			crashed[c] = true
			t = append(t, crash(c))
			continue
		}
		i := ioa.Loc(rng.Intn(n))
		if crashed[i] {
			continue
		}
		t = append(t, fd(i, "p"))
	}
	// Ensure every live location has at least one output and crashes all land.
	for _, c := range pendingCrash {
		crashed[c] = true
		t = append(t, crash(c))
	}
	for i := 0; i < n; i++ {
		if !crashed[ioa.Loc(i)] {
			t = append(t, fd(ioa.Loc(i), "p"))
		}
	}
	return t
}

func TestProjectAndKinds(t *testing.T) {
	tr := T{crash(0), fd(1, "a"), fd(0, "b"), crash(2)}
	if got := len(AtLoc(tr, 0)); got != 2 {
		t.Errorf("AtLoc(0) has %d events, want 2", got)
	}
	if got := len(Kinds(tr, ioa.KindCrash)); got != 2 {
		t.Errorf("Kinds(crash) has %d events, want 2", got)
	}
	if got := len(FD(tr, "FD-X")); got != 4 {
		t.Errorf("FD projection has %d events, want 4", got)
	}
	if got := len(FD(tr, "FD-Y")); got != 2 {
		t.Errorf("FD projection onto other family has %d events, want 2 (crashes)", got)
	}
}

// TestProjectStatefulPredicate pins Project's contract: keep is called
// exactly once per event, in trace order, so a stateful predicate — here
// "the first two events of each location", the per-location count
// selfimpl.VerifyProof keeps — projects what it counts.
func TestProjectStatefulPredicate(t *testing.T) {
	tr := T{fd(0, "a"), fd(1, "b"), fd(0, "c"), crash(1), fd(0, "d"), fd(1, "e"), fd(2, "f")}
	var seen T
	count := make(map[ioa.Loc]int)
	got := Project(tr, func(a ioa.Action) bool {
		seen = append(seen, a)
		count[a.Loc]++
		return count[a.Loc] <= 2
	})
	if !Equal(seen, tr) {
		t.Fatalf("keep saw %v, want each event once in order: %v", seen, tr)
	}
	if want := (T{fd(0, "a"), fd(1, "b"), fd(0, "c"), crash(1), fd(2, "f")}); !Equal(got, want) {
		t.Fatalf("Project = %v, want %v", got, want)
	}
}

func TestFaultyLive(t *testing.T) {
	tr := T{fd(0, "a"), crash(1), fd(2, "b")}
	f := Faulty(tr)
	if !f[1] || f[0] || f[2] {
		t.Errorf("Faulty = %v", f)
	}
	l := Live(tr, 3)
	if !l[0] || l[1] || !l[2] {
		t.Errorf("Live = %v", l)
	}
}

func TestFirstCrashIndex(t *testing.T) {
	tr := T{fd(0, "a"), crash(1), crash(1), fd(0, "b")}
	if got := FirstCrashIndex(tr, 1); got != 1 {
		t.Errorf("FirstCrashIndex = %d, want 1", got)
	}
	if got := FirstCrashIndex(tr, 0); got != -1 {
		t.Errorf("FirstCrashIndex of live = %d, want -1", got)
	}
}

func TestIsSubsequence(t *testing.T) {
	tr := T{fd(0, "a"), fd(1, "b"), fd(0, "c")}
	if !IsSubsequence(T{fd(0, "a"), fd(0, "c")}, tr) {
		t.Error("valid subsequence rejected")
	}
	if IsSubsequence(T{fd(0, "c"), fd(0, "a")}, tr) {
		t.Error("out-of-order subsequence accepted")
	}
	if !IsSubsequence(nil, tr) {
		t.Error("empty sequence is a subsequence of anything")
	}
}

func TestStableSuffix(t *testing.T) {
	tr := T{fd(0, "x"), fd(0, "y"), fd(0, "y"), fd(0, "y")}
	pred := func(a ioa.Action) bool { return a.Payload == "y" }
	if got := StableSuffix(tr, pred); got != 1 {
		t.Errorf("StableSuffix = %d, want 1", got)
	}
	if got := StableSuffix(tr, func(ioa.Action) bool { return false }); got != len(tr) {
		t.Errorf("StableSuffix with false pred = %d, want len", got)
	}
	if got := StableSuffix(tr, func(ioa.Action) bool { return true }); got != 0 {
		t.Errorf("StableSuffix with true pred = %d, want 0", got)
	}
}

func TestIsSamplingAcceptsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := genValid(3, []ioa.Loc{1}, 40, rng)
	if err := IsSampling(tr, tr, 3, isOut); err != nil {
		t.Errorf("identity sampling rejected: %v", err)
	}
}

func TestIsSamplingRejectsLiveDrop(t *testing.T) {
	tr := T{fd(0, "a"), fd(0, "b"), fd(1, "c")}
	bad := T{fd(0, "a"), fd(1, "c")} // drops a live-location output
	if err := IsSampling(bad, tr, 2, isOut); err == nil {
		t.Error("sampling that drops live outputs must be rejected")
	}
}

func TestIsSamplingRejectsDroppedFirstCrash(t *testing.T) {
	tr := T{fd(0, "a"), crash(1), fd(0, "b")}
	bad := T{fd(0, "a"), fd(0, "b")}
	if err := IsSampling(bad, tr, 2, isOut); err == nil {
		t.Error("sampling that drops the first crash must be rejected")
	}
}

func TestIsSamplingAllowsFaultySuffixDrop(t *testing.T) {
	tr := T{fd(1, "a"), fd(1, "b"), crash(1), fd(0, "c")}
	good := T{fd(1, "a"), crash(1), fd(0, "c")} // drops a suffix of 1's outputs
	if err := IsSampling(good, tr, 2, isOut); err != nil {
		t.Errorf("valid sampling rejected: %v", err)
	}
	bad := T{fd(1, "b"), crash(1), fd(0, "c")} // drops a prefix, not a suffix
	if err := IsSampling(bad, tr, 2, isOut); err == nil {
		t.Error("non-prefix retention at faulty location must be rejected")
	}
}

func TestGenSamplingAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(4)
		var faulty []ioa.Loc
		for i := 0; i < n-1; i++ {
			if rng.Intn(2) == 0 {
				faulty = append(faulty, ioa.Loc(i))
			}
		}
		tr := genValid(n, faulty, 10+rng.Intn(60), rng)
		s := GenSampling(tr, n, isOut, rng)
		if err := IsSampling(s, tr, n, isOut); err != nil {
			t.Fatalf("trial %d: generated sampling invalid: %v\ntrace: %v\nsample: %v", trial, err, tr, s)
		}
	}
}

// TestGenSamplingSeeded: the sampling is a function of the seed alone —
// the per-location cut-offs do not follow map iteration order.
func TestGenSamplingSeeded(t *testing.T) {
	tr := genValid(6, []ioa.Loc{0, 1, 2, 3, 4}, 120, rand.New(rand.NewSource(3)))
	if got := len(Faulty(tr)); got != 5 {
		t.Fatalf("fixture has %d faulty locations, want 5", got)
	}
	want := GenSampling(tr, 6, isOut, rand.New(rand.NewSource(7)))
	for i := 0; i < 20; i++ {
		if got := GenSampling(tr, 6, isOut, rand.New(rand.NewSource(7))); !Equal(got, want) {
			t.Fatalf("call %d sampled %v, first call %v", i+1, got, want)
		}
	}
}

func TestIsConstrainedReorderingIdentity(t *testing.T) {
	tr := T{fd(0, "a"), crash(1), fd(0, "b"), fd(2, "c")}
	if err := IsConstrainedReordering(tr, tr); err != nil {
		t.Errorf("identity reordering rejected: %v", err)
	}
}

func TestIsConstrainedReorderingRejectsSameLocSwap(t *testing.T) {
	tr := T{fd(0, "a"), fd(0, "b")}
	bad := T{fd(0, "b"), fd(0, "a")}
	if err := IsConstrainedReordering(bad, tr); err == nil {
		t.Error("same-location swap must be rejected")
	}
}

func TestIsConstrainedReorderingRejectsCrashOvertake(t *testing.T) {
	tr := T{crash(1), fd(0, "a")}
	bad := T{fd(0, "a"), crash(1)}
	if err := IsConstrainedReordering(bad, tr); err == nil {
		t.Error("moving an event before a preceding crash must be rejected")
	}
}

func TestIsConstrainedReorderingAllowsCrossLocSwap(t *testing.T) {
	tr := T{fd(0, "a"), fd(1, "b")}
	ok := T{fd(1, "b"), fd(0, "a")}
	if err := IsConstrainedReordering(ok, tr); err != nil {
		t.Errorf("cross-location swap should be allowed: %v", err)
	}
}

func TestIsConstrainedReorderingRejectsNonPermutation(t *testing.T) {
	tr := T{fd(0, "a"), fd(1, "b")}
	if err := IsConstrainedReordering(T{fd(0, "a")}, tr); err == nil {
		t.Error("length mismatch must be rejected")
	}
	if err := IsConstrainedReordering(T{fd(0, "a"), fd(0, "a")}, tr); err == nil {
		t.Error("multiset mismatch must be rejected")
	}
}

func TestGenConstrainedReorderingAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(4)
		var faulty []ioa.Loc
		if rng.Intn(2) == 0 {
			faulty = append(faulty, ioa.Loc(rng.Intn(n-1)))
		}
		tr := genValid(n, faulty, 5+rng.Intn(30), rng)
		r := GenConstrainedReordering(tr, rng)
		if err := IsConstrainedReordering(r, tr); err != nil {
			t.Fatalf("trial %d: generated reordering invalid: %v", trial, err)
		}
	}
}

// Property (testing/quick): for random event sequences, a generated
// constrained reordering preserves per-location subsequences exactly.
func TestQuickReorderingPreservesPerLocationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(locs []uint8, seed int64) bool {
		if len(locs) == 0 {
			return true
		}
		var tr T
		for k, l := range locs {
			tr = append(tr, fd(ioa.Loc(l%4), string(rune('a'+k%26))))
		}
		r := GenConstrainedReordering(tr, rand.New(rand.NewSource(seed)))
		for i := ioa.Loc(0); i < 4; i++ {
			if !Equal(AtLoc(tr, i), AtLoc(r, i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestEqualAndCount(t *testing.T) {
	a := T{fd(0, "a"), fd(1, "b")}
	if !Equal(a, a) {
		t.Error("Equal(a,a) = false")
	}
	if Equal(a, a[:1]) {
		t.Error("Equal with different lengths")
	}
	if Equal(T{fd(0, "a"), fd(1, "c")}, a) {
		t.Error("Equal with different payloads")
	}
	if got := Count(a, func(x ioa.Action) bool { return x.Loc == 0 }); got != 1 {
		t.Errorf("Count = %d", got)
	}
}
