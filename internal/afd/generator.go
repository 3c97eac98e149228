package afd

import (
	"fmt"
	"strconv"

	"repro/internal/ioa"
)

// OutputFunc computes the payload of the next output event at location i
// from the generator's state.  It must be a pure function of the state so
// the automaton stays deterministic (Section 2.5).
type OutputFunc func(st *GenState, i ioa.Loc) string

// GenState is the observable state of a generator automaton: which locations
// have crashed (the crashset variable of Algorithms 1 and 2) and how many
// outputs have been emitted at each location (used by detectors that exhibit
// a deliberately inaccurate prefix before stabilizing, e.g. ◇P).
type GenState struct {
	N       int
	Crashed ioa.LocSet
	Emitted []int
}

// LiveSet returns Π \ crashset, with Π = 0..N−1.
func (s *GenState) LiveSet() ioa.LocSet {
	var set ioa.LocSet
	for i := ioa.Loc(0); int(i) < s.N; i++ {
		if !s.Crashed.Has(i) {
			set.Add(i)
		}
	}
	return set
}

// MinLive returns min(Π \ crashset), or NoLoc if every location crashed.
func (s *GenState) MinLive() ioa.Loc {
	for i := ioa.Loc(0); int(i) < s.N; i++ {
		if !s.Crashed.Has(i) {
			return i
		}
	}
	return ioa.NoLoc
}

// Generator is the generic failure-detector automaton underlying Algorithms
// 1 and 2: inputs are exactly the crash actions; there is one task per
// location whose single enabled action (while the location is un-crashed) is
// the family's output at that location with a payload computed by an
// OutputFunc from the crash set and emission counters.
type Generator struct {
	family string
	out    OutputFunc
	st     GenState

	// stableAfter declares when a location's payload stops depending on its
	// emission counter: once Emitted[i] >= stableAfter, out(st, i) is a
	// function of the crash set alone.  -1 (the default) promises nothing.
	// With the promise, Enabled memoizes the payload per location — the
	// every-event repoll of the fired task returns the cached string instead
	// of re-deriving (and re-allocating) an identical one — invalidating on
	// crash inputs always and on fires only inside the volatile prefix.
	stableAfter int
	payload     []string // cached payload per location; "" = not cached
}

var _ ioa.Automaton = (*Generator)(nil)
var _ ioa.Signatured = (*Generator)(nil)
var _ ioa.FireLocalized = (*Generator)(nil)

// NewGenerator builds a generator automaton for the given output family.
func NewGenerator(family string, n int, out OutputFunc) *Generator {
	return &Generator{
		family:      family,
		out:         out,
		stableAfter: -1,
		st:          GenState{N: n, Emitted: make([]int, n)},
	}
}

// StablePayload promises that out(st, i) no longer depends on Emitted[i]
// once Emitted[i] >= after (after = 0: the payload is a pure function of the
// crash set, true of every non-perverse family in the zoo), enabling the
// per-location payload cache.  The payload must never be the empty string
// (every family encodes at least "{}" or a location number).  Returns g for
// chaining at construction sites.
func (g *Generator) StablePayload(after int) *Generator {
	g.stableAfter = after
	g.payload = make([]string, g.st.N)
	return g
}

// Name implements ioa.Automaton.
func (g *Generator) Name() string { return "gen:" + g.family }

// Accepts implements ioa.Automaton: crash actions only (crash exclusivity).
// The location-range check keeps Accepts aligned with SignatureKeys; an
// out-of-range crash was already a no-op in Input.
func (g *Generator) Accepts(a ioa.Action) bool {
	return a.Kind == ioa.KindCrash && a.Name == ioa.NameCrash &&
		a.Loc >= 0 && int(a.Loc) < g.st.N
}

// SignatureKeys implements ioa.Signatured: crashi for every location.
func (g *Generator) SignatureKeys() []ioa.SigKey {
	keys := make([]ioa.SigKey, g.st.N)
	for i := 0; i < g.st.N; i++ {
		keys[i] = ioa.KeyOf(ioa.Crash(ioa.Loc(i)))
	}
	return keys
}

// Input implements ioa.Automaton: crashi adds i to the crash set.  Every
// location's payload may depend on the crash set, so the whole payload cache
// is invalidated (crashes are rare; fires are the hot path).
func (g *Generator) Input(a ioa.Action) {
	if a.Loc >= 0 && int(a.Loc) < g.st.N {
		g.st.Crashed.Add(a.Loc)
		for i := range g.payload {
			g.payload[i] = ""
		}
	}
}

// NumTasks implements ioa.Automaton: one task per location (Algorithm 1).
func (g *Generator) NumTasks() int { return g.st.N }

// TaskLabel implements ioa.Automaton.
func (g *Generator) TaskLabel(t int) string { return fmt.Sprintf("%s@%d", g.family, t) }

// Enabled implements ioa.Automaton: while i has not crashed, the output at i
// with the payload the OutputFunc computes (precondition i ∉ crashset).
// Memoization via the StablePayload cache never changes the returned action,
// only whether the OutputFunc runs.
func (g *Generator) Enabled(t int) (ioa.Action, bool) {
	if g.st.Crashed.Has(ioa.Loc(t)) {
		return ioa.Action{}, false
	}
	if g.payload != nil {
		if p := g.payload[t]; p != "" {
			return ioa.FDOutput(g.family, ioa.Loc(t), p), true
		}
		p := g.out(&g.st, ioa.Loc(t))
		g.payload[t] = p
		return ioa.FDOutput(g.family, ioa.Loc(t), p), true
	}
	return ioa.FDOutput(g.family, ioa.Loc(t), g.out(&g.st, ioa.Loc(t))), true
}

// Fire implements ioa.Automaton.
func (g *Generator) Fire(a ioa.Action) {
	g.st.Emitted[a.Loc]++
	if g.payload != nil && g.st.Emitted[a.Loc] <= g.stableAfter {
		// Still inside the volatile prefix (or just crossed out of it):
		// the payload at this location may have changed.
		g.payload[a.Loc] = ""
	}
}

// FireTouches implements ioa.FireLocalized: firing the output at location i
// only bumps Emitted[i], and every OutputFunc in the zoo reads only its own
// location's emission counter (the crash set, which all locations' payloads
// depend on, changes on Input, never on Fire).  So the only task whose
// enabled action can differ after Fire is the one that fired.
func (g *Generator) FireTouches(a ioa.Action) int { return int(a.Loc) }

// Clone implements ioa.Automaton.
func (g *Generator) Clone() ioa.Automaton {
	c := &Generator{family: g.family, out: g.out, stableAfter: g.stableAfter, st: g.st}
	c.st.Emitted = append([]int(nil), g.st.Emitted...)
	if g.payload != nil {
		c.payload = append([]string(nil), g.payload...)
	}
	return c
}

// AppendEncode implements ioa.Automaton.
func (g *Generator) AppendEncode(dst []byte) []byte {
	dst = append(dst, "G:"...)
	dst = append(dst, g.family...)
	dst = append(dst, '|')
	for i := 0; i < g.st.N; i++ {
		if g.st.Crashed.Has(ioa.Loc(i)) {
			dst = append(dst, 'x')
		} else {
			dst = append(dst, '.')
		}
	}
	dst = append(dst, '|')
	for i, e := range g.st.Emitted {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(e), 10)
	}
	return dst
}
