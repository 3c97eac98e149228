package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/ioa"
)

// ArtifactVersion is the current wire-format version of Artifact.
const ArtifactVersion = 1

// GateVeto records one scheduling veto by an adversarial gate: the step
// counter at which an enabled action was held back, and the action.  The
// veto log is informational — replay determinism comes from re-deriving the
// gates from the recorded parameters, not from playing the log back — but
// it makes a shrunk reproducer legible without re-running it.
type GateVeto struct {
	Step   int    `json:"step"`
	Action string `json:"action"`
}

// LinkEvent records one non-deliver decision of a lossy link: the directed
// link ("from>to"), the 0-based per-link send index the decision applied
// to, and the outcome ("drop", "dup", "reorder").  Like the gate-veto log,
// it is informational — replay determinism comes from re-deriving every
// decision from the recorded NetWire parameters — but it makes a lossy
// reproducer legible without re-running it.
type LinkEvent struct {
	Link    string `json:"link"`
	Seq     uint64 `json:"seq"`
	Outcome string `json:"outcome"`
}

// NetWire is the artifact form of an adversarial network: the topology
// descriptor (system.ParseTopology round-trips it), the link-decision seed,
// and the permille loss rates.  A nil NetWire means the reliable full mesh.
type NetWire struct {
	Topo    string `json:"topo,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Drop    int    `json:"drop,omitempty"`
	Dup     int    `json:"dup,omitempty"`
	Reorder int    `json:"reorder,omitempty"`
}

// Artifact is a self-contained, replayable record of one chaos run: the
// target system, the full randomness (seed), the fault plan, the gate
// parameters, and the verdict.  Everything the run consumed is a
// deterministic function of these fields, so feeding an artifact back
// through the chaos runner reproduces the identical execution and verdict.
//
// Gate holds named integer parameters whose interpretation belongs to the
// harness that wrote the artifact (package chaos documents its keys); the
// trace package only defines the wire schema.
type Artifact struct {
	Version int            `json:"version"`
	Target  string         `json:"target"`
	N       int            `json:"n"`
	Steps   int            `json:"steps"`
	Sched   string         `json:"sched"`
	Seed    int64          `json:"seed"`
	Crash   []ioa.Loc      `json:"crash"`
	Gate    map[string]int `json:"gate,omitempty"`
	GateLog []GateVeto     `json:"gateLog,omitempty"`
	// Net records the adversarial network the run executed over (nil: the
	// reliable full mesh); NetLog is the bounded log of its non-deliver
	// link decisions.  Replays reconstruct the network from Net alone.
	Net    *NetWire    `json:"net,omitempty"`
	NetLog []LinkEvent `json:"netLog,omitempty"`
	// Stamps, present on artifacts of live runs, holds one wall-clock
	// timestamp per Trace event: nanoseconds elapsed from the run's start to
	// the event (relative offsets, not absolute times).  Epoch anchors them:
	// the run's start instant in Unix nanoseconds.  Together they let a
	// replayed live artifact recompute wall-clock QoS (detection time,
	// mistake duration, propagation latency) offline; simulated artifacts
	// omit both and QoS falls back to step indices.  Informational for
	// replay, which never consumes timing.
	Stamps  []int64 `json:"stamps,omitempty"`
	Epoch   int64   `json:"epoch,omitempty"`
	Verdict string  `json:"verdict,omitempty"`
	// TraceRef, when set, names the Chrome trace_event file recorded
	// alongside this artifact (a relative path or URL).  The cross-link runs
	// both ways: the telemetry trace carries the artifact path in its
	// otherData metadata, and chaos.ReplayInstrumented re-traces the run the
	// artifact records.  Informational; replay ignores it.
	TraceRef string `json:"traceRef,omitempty"`
	Trace    T      `json:"-"`
}

// artifactWire is Artifact with the trace in jsonEvent form.
type artifactWire struct {
	Artifact
	Events []jsonEvent `json:"events,omitempty"`
}

// WriteArtifact writes the artifact as indented JSON.
func WriteArtifact(w io.Writer, a *Artifact) error {
	wire := artifactWire{Artifact: *a, Events: encodeEvents(a.Trace)}
	wire.Version = ArtifactVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(wire)
}

// WriteArtifactFile writes the artifact to path, creating its directory.
func WriteArtifactFile(path string, a *Artifact) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteArtifact(f, a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadArtifact reads an artifact written by WriteArtifact.
func ReadArtifact(r io.Reader) (*Artifact, error) {
	var wire artifactWire
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("trace: decoding artifact: %w", err)
	}
	if wire.Version != ArtifactVersion {
		return nil, fmt.Errorf("trace: artifact version %d, want %d", wire.Version, ArtifactVersion)
	}
	t, err := decodeEvents(wire.Events)
	if err != nil {
		return nil, err
	}
	a := wire.Artifact
	a.Trace = t
	return &a, nil
}
