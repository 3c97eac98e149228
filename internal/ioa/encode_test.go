package ioa

import (
	"bytes"
	"testing"
)

// fixedAuto is a taskless automaton whose encoding is a fixed string.
type fixedAuto struct {
	name  string
	state string
}

func (a *fixedAuto) Name() string                   { return a.name }
func (a *fixedAuto) Accepts(Action) bool            { return false }
func (a *fixedAuto) Input(Action)                   {}
func (a *fixedAuto) NumTasks() int                  { return 0 }
func (a *fixedAuto) TaskLabel(int) string           { return "" }
func (a *fixedAuto) Enabled(int) (Action, bool)     { return Action{}, false }
func (a *fixedAuto) Fire(Action)                    {}
func (a *fixedAuto) Clone() Automaton               { c := *a; return &c }
func (a *fixedAuto) AppendEncode(dst []byte) []byte { return append(dst, a.state...) }

// TestAppendEncodeMatchesEncode: a System's encoding splits on EncSep into
// exactly its components' encodings, in composition order — the segment
// boundaries the delta explorer splices successor encodings at — an empty
// component included; Encode returns the same bytes, and AppendEncode keeps
// a non-empty dst.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	autos := []Automaton{
		&fixedAuto{name: "a", state: "s1|x"},
		&fixedAuto{name: "b", state: "s2[y\x1fz]"},
		&fixedAuto{name: "c", state: ""},
	}
	sys := MustNewSystem(autos...)
	enc := sys.AppendEncode(nil)
	segs := bytes.Split(enc, []byte{EncSep})
	if len(segs) != len(autos) {
		t.Fatalf("%q splits into %d segments, want %d", enc, len(segs), len(autos))
	}
	for i, a := range autos {
		if want := a.AppendEncode(nil); !bytes.Equal(segs[i], want) {
			t.Errorf("segment %d = %q, want %s's encoding %q", i, segs[i], a.Name(), want)
		}
	}
	if got := sys.Encode(); got != string(enc) {
		t.Fatalf("Encode = %q, AppendEncode = %q", got, enc)
	}
	if got := string(sys.AppendEncode([]byte("pre:"))); got != "pre:"+string(enc) {
		t.Fatalf("AppendEncode(prefix) = %q", got)
	}
}

func TestActionAppendTo(t *testing.T) {
	acts := []Action{
		{},
		Crash(1),
		Crash(NoLoc),
		Send(0, 2, "m|x"),
		Receive(2, 0, "m"),
		FDOutput("FD-Ω", 2, "{0,1}"),
		EnvInput("propose", 0, "1"),
		EnvOutput("decide", 1, ""),
		Internal("tick", 3, ""),
	}
	for _, a := range acts {
		if got := string(a.AppendTo(nil)); got != a.String() {
			t.Errorf("AppendTo(%#v) = %q, want %q", a, got, a.String())
		}
	}
}
