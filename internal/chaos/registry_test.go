package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/trace"
)

// TestEveryKind runs every registered target kind at n=3 under each
// scheduler with one crash plan, through the checking machinery: a stride-1
// oracle with channel shadows finds no divergence and the target's checker
// passes; the artifact replays byte-identically through the cross-engine
// pass; and a second execution in the same process yields the same trace
// and verdict — Go re-randomizes every map range, so an iteration-order
// leak into the schedule shows up as a difference.  kset also runs at n=2,
// the only n where its binary proposals can break k-agreement.  The first
// execution's final composed encoding must match its pin in
// finalEncodingPins.
func TestEveryKind(t *testing.T) {
	type kindAt struct {
		id string
		n  int
	}
	cases := []kindAt{{"kset", 2}}
	for _, id := range Kinds() {
		cases = append(cases, kindAt{id, 3})
	}
	for _, c := range cases {
		id, n := c.id, c.n
		target, err := ParseTarget(id)
		if err != nil {
			t.Fatal(err)
		}
		plan := system.NoFaults()
		if target.MaxT(n) > 0 {
			plan = system.CrashOf(0)
		}
		for _, sk := range Schedulers() {
			t.Run(fmt.Sprintf("%s/n=%d/%s", id, n, sk), func(t *testing.T) {
				r := Run{Target: target, N: n, Plan: plan, Gates: GateSpec{CrashAfter: 10, StarveFrom: -1, StarveTo: -1}, Sched: sk, Seed: 5}
				var final string
				v, err := ExecuteInstrumented(r, func(b *Built) func() error {
					check := OracleHook(nil)(b)
					return func() error {
						final = b.Sys.Encode()
						return check()
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if v.Failed() {
					t.Fatalf("%d steps (%s): %v", v.Steps, v.Reason, v.Err)
				}
				checkEncodingPin(t, final)
				if err := ReplayThroughSystem(v.Artifact()); err != nil {
					t.Fatalf("cross-engine replay: %v", err)
				}
				w, err := ExecuteInstrumented(r, OracleHook(nil))
				if err != nil {
					t.Fatal(err)
				}
				if !trace.Equal(v.Trace, w.Trace) || fmt.Sprint(v.Err) != fmt.Sprint(w.Err) {
					t.Fatalf("second execution differs: %d vs %d events, verdict %v vs %v",
						len(v.Trace), len(w.Trace), v.Err, w.Err)
				}
			})
		}
	}
}

// finalEncodingPins holds, per subtest of TestEveryKind and
// TestFinalEncodingPins, the first 16 hex digits of the SHA-256 of the
// run's final composed encoding (System.Encode).  The pins were captured
// before the component encoders moved from fmt to append form, so they
// hold every encoder to the bytes it wrote then, the tracked channels'
// stamps and lossy channels' "@sent" suffix included.
var finalEncodingPins = map[string]string{
	"kset/n=2/rr":                                "c5e75cacfd1cdadd",
	"kset/n=2/random":                            "c5e75cacfd1cdadd",
	"kset/n=2/lifo":                              "74a765380bfec3d7",
	"detector:FD-Ω/n=3/rr":                       "1c971437143e5f98",
	"detector:FD-Ω/n=3/random":                   "faf5d2a44dc7c380",
	"detector:FD-Ω/n=3/lifo":                     "faf5d2a44dc7c380",
	"gossip:FD-Q>FD-P/n=3/rr":                    "04c8a28b029adc5f",
	"gossip:FD-Q>FD-P/n=3/random":                "ed951b6696f4303a",
	"gossip:FD-Q>FD-P/n=3/lifo":                  "445a41e507faa396",
	"relay:FD-Q>FD-P/n=3/rr":                     "ea26cfefbbd8033c",
	"relay:FD-Q>FD-P/n=3/random":                 "029b57d6d70d3772",
	"relay:FD-Q>FD-P/n=3/lifo":                   "f07544a69ee5f228",
	"consensus:FD-Ω/n=3/rr":                      "950ff7b3d9ab6065",
	"consensus:FD-Ω/n=3/random":                  "3b4e21edd2d09244",
	"consensus:FD-Ω/n=3/lifo":                    "4e943aa765bbe43d",
	"smachine:FD-P/n=3/rr":                       "c4e433b3669a73fe",
	"smachine:FD-P/n=3/random":                   "b9b418352ec649bc",
	"smachine:FD-P/n=3/lifo":                     "37ed2a50e6dd5067",
	"kset/n=3/rr":                                "822033e4bee511b0",
	"kset/n=3/random":                            "82499618f135401c",
	"kset/n=3/lifo":                              "0f3d7dc9420c3b96",
	"nbac/n=3/rr":                                "3f6dd05d5ea7c695",
	"nbac/n=3/random":                            "2574538da1b1cb18",
	"nbac/n=3/lifo":                              "f4eda8119d4cccb8",
	"trb/n=3/rr":                                 "281c14c951098c41",
	"trb/n=3/random":                             "a132f36753fd50cf",
	"trb/n=3/lifo":                               "989260ca7c599396",
	"urb:majority/n=3/rr":                        "9272023f8a308181",
	"urb:majority/n=3/random":                    "a785407fb065ed18",
	"urb:majority/n=3/lifo":                      "cb12ccbc8de3fecf",
	"urb:P/n=3/rr":                               "d21f673ac318091c",
	"urb:P/n=3/random":                           "32c1538321d64e48",
	"urb:P/n=3/lifo":                             "fa87facce895634c",
	"mutex:FD-◇P/n=3/rr":                         "e438a765da1a1f80",
	"mutex:FD-◇P/n=3/random":                     "364b874ec8668773",
	"mutex:FD-◇P/n=3/lifo":                       "1bb81dee0a628e3c",
	"participant:consensus/n=3/rr":               "b3774fb3a45abd23",
	"participant:consensus/n=3/random":           "7ded3647a7fce174",
	"participant:consensus/n=3/lifo":             "af016a2b60c6ea99",
	"participant:via-consensus/n=3/rr":           "8bd4a8393e0216ea",
	"participant:via-consensus/n=3/random":       "4f1258fb7491cb78",
	"participant:via-consensus/n=3/lifo":         "e8c66d82888ecb48",
	"selfimpl:FD-◇P/n=3/rr":                      "ab054b7aabfec42b",
	"selfimpl:FD-◇P/n=3/random":                  "9fb49d425fad1041",
	"selfimpl:FD-◇P/n=3/lifo":                    "9fb49d425fad1041",
	"gossip:FD-◇Q>FD-◇P>FD-Ω/lossy=false/rr":     "01bce6559a7de7c2",
	"gossip:FD-◇Q>FD-◇P>FD-Ω/lossy=false/random": "52d56d382c9df343",
	"gossip:FD-◇Q>FD-◇P>FD-Ω/lossy=false/lifo":   "378257ceb47d1d7a",
	"urb:majority/lossy=true/rr":                 "26b3efffa3eba863",
	"urb:majority/lossy=true/random":             "950e8675f77b35d1",
	"urb:majority/lossy=true/lifo":               "7bad6b94429d6e42",
}

// checkEncodingPin compares the digest of a final encoding with the pin
// for the running subtest.
func checkEncodingPin(t *testing.T, enc string) {
	t.Helper()
	sum := sha256.Sum256([]byte(enc))
	got := hex.EncodeToString(sum[:])[:16]
	name := t.Name()[strings.Index(t.Name(), "/")+1:]
	if want := finalEncodingPins[name]; got != want {
		t.Errorf("final encoding digest %s, pinned %q", got, want)
	}
}

// TestFinalEncodingPins pins the final encodings TestEveryKind's rows do
// not reach: a gossip chain ending in a transform local reduction, and a
// run cut short on a lossy, duplicating network, whose channels encode
// their send counters with messages (and, under lifo, stamps) in flight.
// Only the encoding is checked, not the verdict.
func TestFinalEncodingPins(t *testing.T) {
	for _, c := range []struct {
		id    string
		net   system.NetSpec
		steps int
	}{
		{"gossip:FD-◇Q>FD-◇P>FD-Ω", system.NetSpec{}, 0},
		{"urb:majority", system.NetSpec{Seed: 1, Drop: 120, Dup: 120}, 30},
	} {
		target, err := ParseTarget(c.id)
		if err != nil {
			t.Fatal(err)
		}
		for _, sk := range Schedulers() {
			t.Run(fmt.Sprintf("%s/lossy=%t/%s", c.id, c.net.Lossy(), sk), func(t *testing.T) {
				r := Run{Target: target, N: 3, Plan: system.CrashOf(0), Gates: GateSpec{CrashAfter: 10, StarveFrom: -1, StarveTo: -1}, Net: c.net, Sched: sk, Seed: 5, Steps: c.steps}
				var final string
				if _, err := ExecuteInstrumented(r, func(b *Built) func() error {
					return func() error { final = b.Sys.Encode(); return nil }
				}); err != nil {
					t.Fatal(err)
				}
				checkEncodingPin(t, final)
			})
		}
	}
}

// TestKindsCoverRegistry: Kinds names every registry row and every ID it
// lists round-trips through ParseTarget and ID, @ values included.
func TestKindsCoverRegistry(t *testing.T) {
	listed := make(map[string]bool)
	for _, id := range Kinds() {
		target, err := ParseTarget(id)
		if err != nil {
			t.Fatalf("ParseTarget(%q): %v", id, err)
		}
		if target.ID() != id {
			t.Errorf("ParseTarget(%q).ID() = %q", id, target.ID())
		}
		if r, ok := target.(registered); ok {
			listed[r.row.kind] = true
		}
	}
	for _, r := range registry {
		if !listed[r.kind] {
			t.Errorf("registry row %q missing from Kinds", r.kind)
		}
	}
	for _, id := range []string{"nbac@101", "participant:consensus@101", "consensus:FD-◇P@10101", "smachine:FD-P@011"} {
		target, err := ParseTarget(id)
		if err != nil {
			t.Errorf("ParseTarget(%q): %v", id, err)
			continue
		}
		if target.ID() != id {
			t.Errorf("ParseTarget(%q).ID() = %q", id, target.ID())
		}
	}
	for _, id := range []string{
		"trb@101", "detector:FD-P@1", "nbac@", "nbac@1,0", "nbac@121", "consensus:FD-Ω@201",
		"kset@21", "kset:FD-P", "smachine:", "urb:Q",
	} {
		if _, err := ParseTarget(id); err == nil {
			t.Errorf("ParseTarget(%q) accepted", id)
		}
	}
	// A value the binary environment cannot propose is an error at Build,
	// not a panic.
	bad := lookup("consensus:FD-Ω").(registered)
	bad.values = "201"
	if _, err := Execute(Run{Target: bad, N: 3}); err == nil {
		t.Errorf("%s at n=3 built", bad.ID())
	}
	// Values fix n: building at another location count is an error.
	nbac, err := ParseTarget("nbac@101")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(Run{Target: nbac, N: 4}); err == nil || !strings.Contains(err.Error(), "valid only at n=3") {
		t.Errorf("nbac@101 at n=4: %v", err)
	}
	v, err := Execute(Run{Target: nbac, N: 3})
	if err != nil || v.Failed() {
		t.Fatalf("nbac@101 at n=3: %v %v", err, v.Err)
	}
	for _, a := range v.Trace {
		if a.Kind == ioa.KindEnvOut && a.Payload != "abort" {
			t.Fatalf("a no vote committed: %v", a)
		}
	}
}
