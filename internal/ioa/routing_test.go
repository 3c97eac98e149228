package ioa

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// recorder is a sink automaton for routing tests: it accepts the env-input
// names in its set at its location and logs every delivery.  With sig=true it
// declares its signature (exercising the routing index); with sig=false it is
// a wildcard automaton consulted on every action.  It has no tasks.
type recorder struct {
	name    string
	loc     Loc
	accepts map[string]bool
	sig     bool
	got     []Action
}

func (r *recorder) Name() string               { return r.name }
func (r *recorder) NumTasks() int              { return 0 }
func (r *recorder) TaskLabel(int) string       { return "" }
func (r *recorder) Enabled(int) (Action, bool) { return Action{}, false }
func (r *recorder) Fire(Action)                {}
func (r *recorder) Accepts(a Action) bool {
	return a.Kind == KindEnvIn && a.Loc == r.loc && r.accepts[a.Name]
}
func (r *recorder) Input(a Action) { r.got = append(r.got, a) }
func (r *recorder) Clone() Automaton {
	c := *r
	c.got = append([]Action(nil), r.got...)
	return &c
}
func (r *recorder) AppendEncode(dst []byte) []byte {
	return fmt.Appendf(dst, "%s:%d", r.name, len(r.got))
}

// sigRecorder wraps recorder with a SignatureKeys declaration.
type sigRecorder struct{ recorder }

var _ Signatured = (*sigRecorder)(nil)

func (r *sigRecorder) SignatureKeys() []SigKey {
	var keys []SigKey
	for n := range r.accepts {
		keys = append(keys, KeyOf(EnvInput(n, r.loc, "")))
	}
	return keys
}

// emitter owns a scripted sequence of actions, one task.
type emitter struct {
	script []Action
	at     int
}

func (e *emitter) Name() string                   { return "emitter" }
func (e *emitter) Accepts(Action) bool            { return false }
func (e *emitter) Input(Action)                   {}
func (e *emitter) NumTasks() int                  { return 1 }
func (e *emitter) TaskLabel(int) string           { return "emit" }
func (e *emitter) Fire(Action)                    { e.at++ }
func (e *emitter) Clone() Automaton               { c := *e; return &c }
func (e *emitter) AppendEncode(dst []byte) []byte { return fmt.Appendf(dst, "em:%d", e.at) }
func (e *emitter) Enabled(int) (Action, bool) {
	if e.at >= len(e.script) {
		return Action{}, false
	}
	return e.script[e.at], true
}

// TestRoutingDeliversExactlyAcceptsScanSet (PR 2 satellite): for random
// mixes of signatured and wildcard acceptors and random action scripts —
// including names and locations nobody accepts — Apply must deliver exactly
// the set of automata a full Accepts scan over the composition would find,
// in the same (composition) order.  Hiding must not change delivery, only
// the trace.
func TestRoutingDeliversExactlyAcceptsScanSet(t *testing.T) {
	rng := rand.New(rand.NewSource(20120716)) // PODC'12 venue date
	names := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 200; trial++ {
		nRec := 1 + rng.Intn(6)
		autos := make([]Automaton, 0, nRec+1)
		recs := make([]*recorder, 0, nRec)
		for i := 0; i < nRec; i++ {
			base := recorder{
				name:    fmt.Sprintf("rec%d", i),
				loc:     Loc(rng.Intn(3)),
				accepts: map[string]bool{},
			}
			for _, n := range names {
				if rng.Intn(2) == 0 {
					base.accepts[n] = true
				}
			}
			if rng.Intn(2) == 0 {
				base.sig = true
				sr := &sigRecorder{base}
				recs = append(recs, &sr.recorder)
				autos = append(autos, sr)
			} else {
				r := new(recorder)
				*r = base
				recs = append(recs, r)
				autos = append(autos, r)
			}
		}
		em := &emitter{}
		for k := 0; k < 20; k++ {
			em.script = append(em.script,
				EnvInput(names[rng.Intn(len(names))], Loc(rng.Intn(4)), fmt.Sprintf("p%d", k)))
		}
		autos = append(autos, em)
		sys := MustNewSystem(autos...)
		if trial%3 == 0 {
			// Hiding is trace-only: it must not perturb routing.
			sys.Hide(func(a Action) bool { return a.Name == "a" })
		}

		// Reference model: the pre-index full Accepts scan.
		want := make([][]Action, nRec)
		for _, act := range em.script {
			for i, r := range recs {
				if r.Accepts(act) {
					want[i] = append(want[i], act)
				}
			}
		}
		for range em.script {
			if _, ok := sys.Step(TaskRef{Auto: nRec, Task: 0}); !ok {
				t.Fatal("emitter not enabled")
			}
		}
		for i, r := range recs {
			if !reflect.DeepEqual(r.got, want[i]) {
				t.Fatalf("trial %d: %s (sig=%t, loc=%v, accepts=%v):\ngot  %v\nwant %v",
					trial, r.name, r.sig, r.loc, r.accepts, r.got, want[i])
			}
		}
	}
}

// TestRoutingExternalApplyMatchesScan: owner = -1 (externally sourced
// events, the execution-tree driver) goes through the same routing index.
func TestRoutingExternalApplyMatchesScan(t *testing.T) {
	sr := &sigRecorder{recorder{name: "s", loc: 1, accepts: map[string]bool{"a": true}, sig: true}}
	wr := &recorder{name: "w", loc: 1, accepts: map[string]bool{"a": true, "b": true}}
	sys := MustNewSystem(sr, wr)
	for _, act := range []Action{
		EnvInput("a", 1, "x"), // both
		EnvInput("b", 1, "y"), // wildcard only
		EnvInput("a", 2, "z"), // neither (wrong loc)
	} {
		sys.Apply(-1, act)
	}
	if len(sr.got) != 1 || sr.got[0].Payload != "x" {
		t.Fatalf("signatured recorder got %v", sr.got)
	}
	if len(wr.got) != 2 || wr.got[1].Payload != "y" {
		t.Fatalf("wildcard recorder got %v", wr.got)
	}
}

// readyReference recomputes the ready-set by polling every task, the way the
// pre-fast-path schedulers did each step.
func readyReference(s *System) map[int]Action {
	ref := make(map[int]Action)
	for idx, tr := range s.Tasks() {
		if act, ok := s.autos[tr.Auto].Enabled(tr.Task); ok {
			ref[idx] = act
		}
	}
	return ref
}

// readyObserved walks NextReady and collects the cached actions.
func readyObserved(s *System) map[int]Action {
	got := make(map[int]Action)
	for idx, ok := s.NextReady(-1); ok; idx, ok = s.NextReady(idx) {
		got[idx] = s.ReadyAction(idx)
	}
	return got
}

// TestReadySetTracksPeerInput (PR 2 satellite): an input delivered to a
// *peer* automaton changes that peer's enabledness, and the incremental
// ready-set must reflect it immediately — both enabling (poke raises the
// counter's bound) and draining back to disabled.
func TestReadySetTracksPeerInput(t *testing.T) {
	c := &counter{name: "c", bound: 0} // disabled until poked
	p := &poker{}
	sys := MustNewSystem(c, p)

	if sys.TaskReady(0) {
		t.Fatal("counter ready before poke")
	}
	if !sys.TaskReady(1) {
		t.Fatal("poker not ready")
	}
	if _, ok := sys.Step(TaskRef{Auto: 1, Task: 0}); !ok {
		t.Fatal("poke did not fire")
	}
	// The poke enabled the counter (peer) and disabled the poker (owner).
	if !sys.TaskReady(0) {
		t.Fatal("ready-set missed the peer's enabling input")
	}
	if sys.TaskReady(1) {
		t.Fatal("ready-set kept the drained poker")
	}
	if act := sys.ReadyAction(0); act.Name != "tick" {
		t.Fatalf("cached action = %v, want the counter's tick", act)
	}
	if _, ok := sys.Step(TaskRef{Auto: 0, Task: 0}); !ok {
		t.Fatal("tick did not fire")
	}
	if !sys.Quiescent() || sys.NumReady() != 0 {
		t.Fatal("system not quiescent after draining both tasks")
	}
}

// TestReadySetMatchesReferenceScanUnderRandomDrive: drive a random-script
// composition for many steps, checking after every event that the
// incremental ready-set (indices *and* cached actions) equals a full
// enabledness poll.
func TestReadySetMatchesReferenceScanUnderRandomDrive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		c1 := &counter{name: "c1", bound: rng.Intn(3)}
		c2 := &counter{name: "c2", bound: rng.Intn(3)}
		em := &emitter{}
		for k := 0; k < 15; k++ {
			em.script = append(em.script, EnvInput("poke", 0, ""))
		}
		sys := MustNewSystem(c1, c2, em)
		for step := 0; ; step++ {
			want := readyReference(sys)
			got := readyObserved(sys)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d step %d: ready-set drift:\ngot  %v\nwant %v",
					trial, step, got, want)
			}
			if len(want) == 0 {
				break
			}
			// Fire a uniformly random ready task, chosen by rank over the
			// (deterministic) NextReady order so trials replay per rng.
			pick, n := -1, rng.Intn(len(want))
			for idx, ok := sys.NextReady(-1); ok; idx, ok = sys.NextReady(idx) {
				if n == 0 {
					pick = idx
					break
				}
				n--
			}
			if _, ok := sys.Step(sys.TaskAt(pick)); !ok {
				t.Fatalf("trial %d step %d: picked task %d not enabled", trial, step, pick)
			}
		}
	}
}
