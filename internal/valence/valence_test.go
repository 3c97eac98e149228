package valence

import (
	"strings"
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
)

func explore(t *testing.T, cfg Config) *Explorer {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Explore(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOmegaTDIsAdmissible(t *testing.T) {
	for _, tc := range []struct {
		n       int
		rounds  int
		crashAt map[ioa.Loc]int
	}{
		{2, 4, nil},
		{3, 5, map[ioa.Loc]int{2: 2}},
		{3, 5, map[ioa.Loc]int{0: 1}}, // leader crash forces a leader change
	} {
		tD := OmegaTD(tc.n, tc.rounds, tc.crashAt)
		if err := (afd.Omega{}).Check(tD, tc.n, afd.DefaultWindow()); err != nil {
			t.Errorf("OmegaTD(%d,%d,%v) not admissible: %v", tc.n, tc.rounds, tc.crashAt, err)
		}
	}
}

// TestHookAtFDMessageRace is the sharpest Theorem-59 scenario: both
// proposals are fixed (1 at location 0, 0 at location 1) and location 1 —
// the holder of the winning minimum value — crashes inside tD.  Bivalence
// then persists past the environment inputs and is resolved only by the
// race between the FD edge (location 0 learns of the crash and stops
// waiting) and the channel edge (location 1's value arrives).  The hook
// must therefore involve the FD edge, and its critical location is the live
// location 0.
func TestHookAtFDMessageRace(t *testing.T) {
	e := explore(t, Config{
		N:      2,
		Family: afd.FamilyP,
		Algo:   "s",
		TD:     PerfectTD(2, 4, map[ioa.Loc]int{1: 1}),
		Values: []int{1, 0},
	})
	if got := e.Valence(e.Root()); got != ValBivalent {
		t.Fatalf("root valence = %v, want bivalent (the race makes both decisions reachable)", got)
	}
	hooks := e.FindHooks(0)
	if len(hooks) == 0 {
		t.Fatal("no hooks found")
	}
	fdHook := false
	for _, h := range hooks {
		if err := e.VerifyHook(h); err != nil {
			t.Fatalf("%v", err)
		}
		if h.Critical != 0 {
			t.Fatalf("critical location %v, want the live location 0: %v", h.Critical, h)
		}
		if h.L == LabelFD || h.R == LabelFD {
			fdHook = true
		}
	}
	if !fdHook {
		t.Fatal("expected a hook involving the FD edge (the crash-information race)")
	}
}

// TestPerfectTDIsAdmissible mirrors TestOmegaTDIsAdmissible for the P
// sequence builder.
func TestPerfectTDIsAdmissible(t *testing.T) {
	for _, tc := range []struct {
		n       int
		rounds  int
		crashAt map[ioa.Loc]int
	}{
		{2, 4, nil},
		{2, 4, map[ioa.Loc]int{1: 1}},
		{3, 3, map[ioa.Loc]int{2: 1, 0: 2}},
	} {
		tD := PerfectTD(tc.n, tc.rounds, tc.crashAt)
		if err := afd.Standard(tc.n)[afd.FamilyP].Check(tD, tc.n, afd.DefaultWindow()); err != nil {
			t.Errorf("PerfectTD(%d,%d,%v) not admissible: %v", tc.n, tc.rounds, tc.crashAt, err)
		}
	}
}

func TestNewRejectsUnknownAlgo(t *testing.T) {
	if _, err := New(Config{N: 2, Family: afd.FamilyP, Algo: "zzz", TD: PerfectTD(2, 2, nil)}); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
}

// TestUnanimousRootUnivalent: with fixed unanimous proposals the root is
// univalent for that value (validity pins the decision).
func TestUnanimousRootUnivalent(t *testing.T) {
	for v, want := range map[int]Valence{0: ValZero, 1: ValOne} {
		e := explore(t, Config{
			N:      2,
			Family: afd.FamilyOmega,
			TD:     OmegaTD(2, 6, nil),
			Values: []int{v, v},
		})
		if got := e.Valence(e.Root()); got != want {
			t.Errorf("unanimous %d: root = %v, want %v", v, got, want)
		}
	}
}

// TestBivalencePathTerminates: in the Ω tree the bivalence-preserving
// adversary runs out of bivalent children — the detector forces decisions.
func TestBivalencePathTerminates(t *testing.T) {
	e := explore(t, Config{
		N:      2,
		Family: afd.FamilyOmega,
		TD:     OmegaTD(2, 6, nil),
	})
	length, cyclic := e.BivalencePath()
	if cyclic {
		t.Fatal("bivalent cycle found: the adversary could stall forever despite Ω")
	}
	if length == 0 {
		t.Fatal("no bivalent steps at all; root should be bivalent")
	}
	t.Logf("bivalence-preserving path length: %d", length)
}

func TestExploreCapExceeded(t *testing.T) {
	e, err := New(Config{
		N:        2,
		Family:   afd.FamilyOmega,
		TD:       OmegaTD(2, 6, nil),
		MaxNodes: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Explore(); err == nil {
		t.Fatal("tiny cap must fail exploration")
	}
}

func TestNewRejectsUnknownFamily(t *testing.T) {
	if _, err := New(Config{N: 2, Family: "FD-???", TD: OmegaTD(2, 2, nil)}); err == nil {
		t.Fatal("unknown family must fail")
	}
}

func TestValenceString(t *testing.T) {
	for v, s := range map[Valence]string{
		ValZero: "0-valent", ValOne: "1-valent",
		ValBivalent: "bivalent", ValUnknown: "unknown",
	} {
		if v.String() != s {
			t.Errorf("Valence(%d).String() = %q", v, v.String())
		}
	}
}

func TestLabelName(t *testing.T) {
	e, err := New(Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 2, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if e.LabelName(LabelFD) != "FD" {
		t.Error("FD label name")
	}
	if e.LabelName(0) == "" {
		t.Error("task label name empty")
	}
}

func TestHookStats(t *testing.T) {
	e := explore(t, Config{
		N:      2,
		Family: afd.FamilyP,
		Algo:   "s",
		TD:     PerfectTD(2, 4, map[ioa.Loc]int{1: 1}),
		Values: []int{1, 0},
	})
	hooks := e.FindHooks(0)
	if len(hooks) == 0 {
		t.Fatal("no hooks")
	}
	st := e.HookStats(hooks)
	if st.FDInvolved == 0 {
		t.Error("FD-race scenario must involve the FD edge in some hook")
	}
	if st.ByCritical[0] != len(hooks) {
		t.Errorf("critical distribution %v; all hooks should pivot at live location 0", st.ByCritical)
	}
	total := 0
	for _, c := range st.ByLabelKind {
		total += c
	}
	if total != 2*len(hooks) {
		t.Errorf("label-kind counts %v do not cover both edges of %d hooks", st.ByLabelKind, len(hooks))
	}
}

func TestWriteDOT(t *testing.T) {
	e := explore(t, Config{N: 2, Family: afd.FamilyOmega, TD: OmegaTD(2, 3, nil)})
	var buf strings.Builder
	if err := e.WriteDOT(&buf, 50); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "digraph rtd {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Fatal("malformed DOT output")
	}
	if !strings.Contains(out, "orange") {
		t.Error("bivalent root not colored")
	}
	if !strings.Contains(out, "style=dashed") {
		t.Error("FD edges not dashed")
	}
	if strings.Count(out, "\n  n") < 10 {
		t.Error("suspiciously few nodes emitted")
	}
}
