package ioa_test

import (
	"maps"
	"testing"

	"repro/internal/ioa"
)

// FuzzLocSetCodec differentially tests the bitmask location-set codec
// against the map-based reference pair:
//
//   - on an arbitrary payload, ParseLocSet must accept exactly what
//     DecodeLocSet accepts, with the same error text and the same members;
//   - on a set drawn from the fuzzed bytes (up to 48 members from −8 to
//     247, so negatives and members ≥ 64 take the spill path), AppendEncode
//     must append exactly EncodeLocSet's bytes, whether the set was built
//     by Add, by Union of two halves, or by parsing its own encoding;
//   - removing one half's members from a copy of that set must leave
//     exactly EncodeLocSet's rendering of the map without them, and leave
//     the original set as it was.
func FuzzLocSetCodec(f *testing.F) {
	for _, s := range []string{
		"{}", "{,}", "{1,}", "{+1}", "{-1}", "{01}", "{63}", "{64}", "{1,1}", "{ 1}",
		"{9223372036854775808}", // overflows int64
		"{0,1,2,3}", "{2,70,-3}", "}", "{", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, werr := ioa.DecodeLocSet(s)
		got, gerr := ioa.ParseLocSet(s)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("ParseLocSet(%q) error %v, DecodeLocSet error %v", s, gerr, werr)
		}
		if werr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("ParseLocSet(%q) error %q, DecodeLocSet error %q", s, gerr, werr)
			}
		} else {
			if got.Len() != len(want) {
				t.Fatalf("ParseLocSet(%q) has %d members, DecodeLocSet %d", s, got.Len(), len(want))
			}
			for l := range want {
				if !got.Has(l) {
					t.Fatalf("ParseLocSet(%q) lacks %d", s, l)
				}
			}
			if g, w := got.String(), ioa.EncodeLocSet(want); g != w {
				t.Fatalf("ParseLocSet(%q) encodes %q, EncodeLocSet %q", s, g, w)
			}
		}

		m := map[ioa.Loc]bool{}
		var added, lo, hi ioa.LocSet
		for i := 0; i < len(s) && i < 48; i++ {
			l := ioa.Loc(int(s[i]) - 8)
			m[l] = true
			added.Add(l)
			if i%2 == 0 {
				lo.Add(l)
			} else {
				hi.Add(l)
			}
		}
		wantEnc := ioa.EncodeLocSet(m)
		prefix := "pre{"
		for name, set := range map[string]ioa.LocSet{
			"Add": added, "Union": lo.Union(hi),
		} {
			if g := string(set.AppendEncode([]byte(prefix))); g != prefix+wantEnc {
				t.Fatalf("%s: AppendEncode = %q, EncodeLocSet = %q", name, g, prefix+wantEnc)
			}
			if !set.Equal(added) || set.Len() != len(m) {
				t.Fatalf("%s: %v differs from %v", name, set, added)
			}
		}
		back, err := ioa.ParseLocSet(wantEnc)
		if err != nil || !back.Equal(added) {
			t.Fatalf("ParseLocSet(%q) = %v, %v; want %v", wantEnc, back, err, added)
		}
		if !lo.SubsetOf(added) || !hi.SubsetOf(added) {
			t.Fatalf("halves %v, %v not subsets of %v", lo, hi, added)
		}
		if lo.Len() > 0 && !lo.Intersects(added) {
			t.Fatalf("%v does not intersect its superset %v", lo, added)
		}

		removed, rest := added, maps.Clone(m)
		for i := 1; i < len(s) && i < 48; i += 2 {
			l := ioa.Loc(int(s[i]) - 8)
			removed.Remove(l)
			delete(rest, l)
		}
		if g, w := removed.String(), ioa.EncodeLocSet(rest); g != w {
			t.Fatalf("Remove: encodes %q, EncodeLocSet %q", g, w)
		}
		if !removed.Equal(added.Minus(hi)) || removed.Len() != len(rest) {
			t.Fatalf("Remove: %v differs from %v minus %v", removed, added, hi)
		}
		if g := added.String(); g != wantEnc {
			t.Fatalf("Remove on a copy changed the original to %q, want %q", g, wantEnc)
		}
	})
}

// TestLocSetCodecAllocs pins the event-path contract: parsing a
// canonical payload with members below 64 and appending a set's encoding
// into a buffer with room allocate nothing.
func TestLocSetCodecAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	var sink int
	if avg := testing.AllocsPerRun(100, func() {
		set, err := ioa.ParseLocSet("{0,3,17,63}")
		if err != nil {
			t.Fatal(err)
		}
		buf = set.AppendEncode(buf[:0])
		sink += set.Len()
	}); avg != 0 {
		t.Fatalf("ParseLocSet+AppendEncode allocates %.1f times per call, want 0", avg)
	}
	if string(buf) != "{0,3,17,63}" || sink == 0 {
		t.Fatalf("round trip gave %q", buf)
	}
}
