package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ioa"
)

func TestArtifactRoundTrip(t *testing.T) {
	a := &Artifact{
		Target:  "detector:FD-P",
		N:       3,
		Steps:   128,
		Sched:   "random",
		Seed:    42,
		Crash:   []ioa.Loc{2, 0},
		Gate:    map[string]int{"crashAfter": 10, "crashGap": 5},
		GateLog: []GateVeto{{Step: 3, Action: "crash_2"}},
		Verdict: "afd: output after crash",
		Trace: T{
			ioa.Crash(2),
			ioa.FDOutput("FD-P", 0, "{2}"),
			ioa.Send(0, 1, "m"),
			ioa.Receive(1, 0, "m"),
		},
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Target != a.Target || b.N != a.N || b.Steps != a.Steps ||
		b.Sched != a.Sched || b.Seed != a.Seed || b.Verdict != a.Verdict {
		t.Fatalf("scalar fields differ: %+v vs %+v", b, a)
	}
	if len(b.Crash) != 2 || b.Crash[0] != 2 || b.Crash[1] != 0 {
		t.Fatalf("crash plan = %v", b.Crash)
	}
	if b.Gate["crashAfter"] != 10 || b.Gate["crashGap"] != 5 {
		t.Fatalf("gate params = %v", b.Gate)
	}
	if len(b.GateLog) != 1 || b.GateLog[0] != (GateVeto{Step: 3, Action: "crash_2"}) {
		t.Fatalf("gate log = %v", b.GateLog)
	}
	if !Equal(b.Trace, a.Trace) {
		t.Fatalf("trace differs: %v vs %v", b.Trace, a.Trace)
	}
	if b.Version != ArtifactVersion {
		t.Fatalf("version = %d", b.Version)
	}
}

// TestArtifactStampsRoundTrip pins the live-run timing fields: one relative
// nanosecond stamp per trace event plus the wall-clock epoch must survive
// the wire, so a replayed live artifact can recompute wall-clock QoS
// offline; a simulated artifact (no stamps) must omit both keys entirely.
func TestArtifactStampsRoundTrip(t *testing.T) {
	a := &Artifact{
		Target: "gossip:FD-◇Q>FD-◇P",
		N:      2,
		Steps:  3,
		Sched:  "live",
		Trace: T{
			ioa.Crash(1),
			ioa.FDOutput("FD-◇P", 0, "{1}"),
		},
		Stamps: []int64{1_500, 2_000_000},
		Epoch:  1_700_000_000_000_000_000,
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Stamps) != 2 || b.Stamps[0] != 1_500 || b.Stamps[1] != 2_000_000 {
		t.Fatalf("stamps = %v, want [1500 2000000]", b.Stamps)
	}
	if b.Epoch != a.Epoch {
		t.Fatalf("epoch = %d, want %d", b.Epoch, a.Epoch)
	}
	if len(b.Stamps) != len(b.Trace) {
		t.Fatalf("stamps (%d) no longer parallel to trace (%d)", len(b.Stamps), len(b.Trace))
	}

	var sim bytes.Buffer
	if err := WriteArtifact(&sim, &Artifact{Target: "t", N: 1}); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"stamps"`, `"epoch"`} {
		if strings.Contains(sim.String(), key) {
			t.Errorf("simulated artifact serializes %s despite having none", key)
		}
	}
}

func TestArtifactVersionMismatch(t *testing.T) {
	in := strings.NewReader(`{"version": 99, "target": "x"}`)
	if _, err := ReadArtifact(in); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestArtifactEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, &Artifact{Target: "t", N: 1}); err != nil {
		t.Fatal(err)
	}
	b, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Trace) != 0 {
		t.Fatalf("trace = %v, want empty", b.Trace)
	}
}

// TestWriteArtifactFile writes into a directory that does not exist yet and
// reads the file back.
func TestWriteArtifactFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out", "a.json")
	a := &Artifact{Target: "t", N: 2, Trace: T{ioa.Crash(1)}}
	if err := WriteArtifactFile(path, a); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := ReadArtifact(f)
	if err != nil {
		t.Fatal(err)
	}
	if b.Target != a.Target || b.N != a.N || !Equal(b.Trace, a.Trace) {
		t.Fatalf("read back %+v, wrote %+v", b, a)
	}
}
