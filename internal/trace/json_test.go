package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ioa"
)

// roundTrip writes tr as an artifact and reads it back.
func roundTrip(t *testing.T, tr T) T {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, &Artifact{Target: "detector:FD-Ω", N: 3, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	a, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return a.Trace
}

func TestJSONRoundTrip(t *testing.T) {
	tr := T{
		ioa.Crash(1),
		ioa.Send(0, 1, "m"),
		ioa.Send(1, 0, "x"),
		ioa.Receive(1, 0, "m"),
		ioa.FDOutput("FD-Ω", 2, "0"),
		ioa.EnvInput("propose", 0, "1"),
		ioa.EnvOutput("decide", 0, "1"),
	}
	if got := roundTrip(t, tr); !Equal(got, tr) {
		t.Fatalf("round trip mismatch:\nwant %v\ngot  %v", tr, got)
	}
}

func TestJSONPeerZeroPreserved(t *testing.T) {
	tr := T{ioa.Send(1, 0, "m")} // peer 0 must survive omitempty handling
	if got := roundTrip(t, tr); got[0].Peer != 0 {
		t.Fatalf("peer = %v, want 0", got[0].Peer)
	}
}

func TestReadJSONErrors(t *testing.T) {
	// artifact wraps an event array in an otherwise valid artifact.
	artifact := func(events string) string { return `{"version":1,"target":"t","n":3,"events":` + events + `}` }
	cases := []string{
		`not json`,
		artifact(`[{"kind":"zzz","loc":0}]`),
		artifact(`[{"kind":"send","loc":0}]`),             // missing peer
		artifact(`[{"kind":"fd","loc":0,"payload":"1"}]`), // missing name
	}
	for _, c := range cases {
		if _, err := ReadArtifact(strings.NewReader(c)); err == nil {
			t.Errorf("ReadArtifact(%q) succeeded, want error", c)
		}
	}
	// Crash without explicit name is fine.
	got, err := ReadArtifact(strings.NewReader(artifact(`[{"kind":"crash","loc":2}]`)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace[0] != ioa.Crash(2) {
		t.Fatalf("got %v", got.Trace[0])
	}
}
