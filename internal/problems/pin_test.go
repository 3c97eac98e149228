package problems_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"repro/internal/ioa"
	. "repro/internal/problems"
	"repro/internal/trace"
)

// traceHash digests a trace event by event, as the golden suites do.
func traceHash(t trace.T) string {
	h := sha256.New()
	for _, a := range t {
		h.Write([]byte(a.String()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestRunTracePins pins the full trace — every send, receive, detector
// output, environment input and output — of one or more runs of each
// Section-7 and Section-10 construction built from this package's
// constructors: URB over a majority and over P, TRB with a live and with a
// crashing sender, the NBAC solver, and both participant reductions.  The
// hosted consensus machines' forwarded sends, the hidden decisions and the
// environment automata all show in these hashes.  Re-pin with PIN_PRINT=1
// only for an intended change.
func TestRunTracePins(t *testing.T) {
	yes3 := []string{VoteYes, VoteYes, VoteYes}
	cases := []struct {
		name string
		run  func(t *testing.T) trace.T
		want string
	}{
		{"urb majority n=3 crash 2 seed 1", func(t *testing.T) trace.T {
			return runURB(t, 3, false, []ioa.Loc{2}, 1, 15)
		}, "f012c5a60b6dd8fb"},
		{"urb majority n=5 crash 0,4 rr", func(t *testing.T) trace.T {
			return runURB(t, 5, false, []ioa.Loc{0, 4}, -1, 15)
		}, "f7cbdba13b68fd5a"},
		// One P output here releases two deliveries at once; they are
		// emitted in message-id order (see TestURBPerfectDeterministic).
		{"urb P n=4 crash 1,2,3 seed 2", func(t *testing.T) trace.T {
			return runURB(t, 4, true, []ioa.Loc{1, 2, 3}, 2, 25)
		}, "d9b435846cda404a"},
		{"urb P n=3 crash 0,1 rr", func(t *testing.T) trace.T {
			return runURB(t, 3, true, []ioa.Loc{0, 1}, -1, 25)
		}, "1f079e4077c3715c"},
		{"trb live sender seed 1", func(t *testing.T) trace.T {
			return runTRB(t, 3, nil, 1, 0)
		}, "ad3a187457af28f8"},
		{"trb live sender rr", func(t *testing.T) trace.T {
			return runTRB(t, 3, nil, -1, 0)
		}, "691311d9967575c7"},
		{"trb crashing sender gate 10 rr", func(t *testing.T) trace.T {
			return runTRB(t, 3, []ioa.Loc{0}, -1, 10)
		}, "c854766e40b9c1f5"},
		{"trb crashing sender gate 40 seed 2", func(t *testing.T) trace.T {
			return runTRB(t, 3, []ioa.Loc{0}, 2, 40)
		}, "305f90aa9aba0cd7"},
		{"nbac all yes seed 1", func(t *testing.T) trace.T {
			return runNBAC(t, 3, yes3, nil, 1, 0)
		}, "e8116259d23587bd"},
		{"nbac one no rr", func(t *testing.T) trace.T {
			return runNBAC(t, 3, []string{VoteYes, VoteNo, VoteYes}, nil, -1, 0)
		}, "5f38856a8472e5cf"},
		{"nbac crash 2 seed 3", func(t *testing.T) trace.T {
			return runNBAC(t, 3, yes3, []ioa.Loc{2}, 3, 5)
		}, "862b429a399e719a"},
		{"consensus via participant rr", func(t *testing.T) trace.T {
			return runCVP(t, 3, -1)
		}, "43996ec3ad621825"},
		{"consensus via participant seed 2", func(t *testing.T) trace.T {
			return runCVP(t, 3, 2)
		}, "c0b397b300d10b7f"},
		{"participant via consensus rr", func(t *testing.T) trace.T {
			return runPVC(t, 3)
		}, "19dd47d577d7b9e7"},
	}
	repin := os.Getenv("PIN_PRINT") != ""
	for _, tc := range cases {
		got := traceHash(tc.run(t))
		if repin {
			t.Logf("%s: %q", tc.name, got)
		} else if got != tc.want {
			t.Errorf("%s: trace hash %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestURBPerfectDeterministic: a detector output that releases several URB
// deliveries at once emits them in the same order on every run, so a seeded
// schedule yields one trace.
func TestURBPerfectDeterministic(t *testing.T) {
	want := traceHash(runURB(t, 4, true, []ioa.Loc{1, 2, 3}, 2, 25))
	for i := 0; i < 5; i++ {
		if got := traceHash(runURB(t, 4, true, []ioa.Loc{1, 2, 3}, 2, 25)); got != want {
			t.Fatalf("run %d traced %s, first run %s", i+1, got, want)
		}
	}
}
