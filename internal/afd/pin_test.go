package afd_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/trace"
)

// ctFamilies is the Chandra–Toueg half of the zoo, in the order the pin
// matrix below uses for its rows and columns.
var ctFamilies = []string{
	afd.FamilyP, afd.FamilyEvP, afd.FamilyS, afd.FamilyEvS,
	afd.FamilyW, afd.FamilyEvW, afd.FamilyQ, afd.FamilyEvQ,
}

// traceHash digests a trace event by event, as the golden suites do.
func traceHash(t trace.T) string {
	h := sha256.New()
	for _, a := range t {
		h.Write([]byte(a.String()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// renameOutputs relabels every detector output of t as family to.
func renameOutputs(t trace.T, to string) trace.T {
	out := make(trace.T, len(t))
	for i, a := range t {
		if a.Kind == ioa.KindFD {
			a.Name = to
		}
		out[i] = a
	}
	return out
}

// TestChandraTouegPins pins the eight suspicion-set detectors end to end on
// the E2 run (n=4, crash {3}, 240 round-robin steps, crash gate 60): the
// hash of each canonical trace, and the 8×8 verdict matrix of each trace,
// renamed to every family, under that family's checker.  Row r, column c is
// '+' when family c's checker accepts family r's canonical trace.  The
// matrix is the zoo's hierarchy as the checkers see it: the crash-set
// traces (P, S) are admissible everywhere, the min-live traces (W, ◇W, Q,
// ◇Q) only where completeness is weak, the perverse ones (◇P, ◇S) only
// where accuracy is eventual.  Re-pin with PIN_PRINT=1 only for an
// intended change.
func TestChandraTouegPins(t *testing.T) {
	const n = 4
	wantHash := map[string]string{
		afd.FamilyP:   "c27235c5ac31e9c9",
		afd.FamilyEvP: "1c5d7e3a088f0479",
		afd.FamilyS:   "cd2911cbc3371848",
		afd.FamilyEvS: "76d28adc76e34fca",
		afd.FamilyW:   "c5982a3c77873fad",
		afd.FamilyEvW: "ed50d6e7e310ab61",
		afd.FamilyQ:   "d7d17d9760f1a944",
		afd.FamilyEvQ: "71f858f10348bef3",
	}
	wantMatrix := []string{
		"++++++++", // FD-P
		"-+-+-+-+", // FD-◇P
		"++++++++", // FD-S
		"-+-+-+-+", // FD-◇S
		"----++++", // FD-W
		"----++++", // FD-◇W
		"----++++", // FD-Q
		"----++++", // FD-◇Q
	}
	repin := os.Getenv("PIN_PRINT") != ""
	w := afd.DefaultWindow()
	var matrix []string
	for _, fam := range ctFamilies {
		tr := execute(t, detectorRun(fam, n, []ioa.Loc{3}, 240, 60))
		if got := traceHash(tr); repin {
			t.Logf("afd.Family%s: %q,", fam, got)
		} else if got != wantHash[fam] {
			t.Errorf("%s canonical trace hash %s, want %s", fam, got, wantHash[fam])
		}
		var row strings.Builder
		for _, judge := range ctFamilies {
			j, err := afd.Lookup(judge, n)
			if err != nil {
				t.Fatal(err)
			}
			if j.Check(renameOutputs(tr, judge), n, w) == nil {
				row.WriteByte('+')
			} else {
				row.WriteByte('-')
			}
		}
		matrix = append(matrix, row.String())
	}
	for i, row := range matrix {
		if repin {
			t.Logf("%q, // %s", row, ctFamilies[i])
		} else if row != wantMatrix[i] {
			t.Errorf("%s trace verdicts %s, want %s (columns %v)", ctFamilies[i], row, wantMatrix[i], ctFamilies)
		}
	}
}
