package afd

import (
	"testing"

	"repro/internal/ioa"
)

// suspects is the checkers' single reading of an FD-output payload; its
// malformed-payload convention — suspect everyone — is what makes a
// corrupted output a completeness pass but an accuracy violation, so a
// detector cannot escape judgment by emitting garbage.
func TestSuspectsWellFormed(t *testing.T) {
	out := ioa.FDOutput("FD-P", 0, ioa.EncodeLocSet(map[ioa.Loc]bool{1: true, 3: true}))
	for loc, want := range map[ioa.Loc]bool{0: false, 1: true, 2: false, 3: true} {
		if got := suspects(out, 4).Has(loc); got != want {
			t.Errorf("suspects(%q, %d) = %t, want %t", out.Payload, loc, got, want)
		}
	}
}

func TestSuspectsEmptySet(t *testing.T) {
	out := ioa.FDOutput("FD-P", 0, ioa.EncodeLocSet(nil))
	for loc := ioa.Loc(0); loc < 4; loc++ {
		if suspects(out, 4).Has(loc) {
			t.Errorf("empty set suspects %d", loc)
		}
	}
}

func TestSuspectsMalformedPayloadSuspectsEveryone(t *testing.T) {
	for _, payload := range []string{
		"",            // no payload at all
		"0,1",         // missing braces
		"{0,1",        // unterminated
		"0,1}",        // unopened
		"{a,b}",       // non-numeric members
		"{0,,1}",      // empty member
		"heartbeat:3", // a non-suspicion payload shape entirely
	} {
		out := ioa.FDOutput("FD-P", 0, payload)
		for loc := ioa.Loc(0); loc < 4; loc++ {
			if !suspects(out, 4).Has(loc) {
				t.Errorf("malformed payload %q does not suspect %d", payload, loc)
			}
		}
	}
}
