package problems

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/trace"
)

// This file implements a *long-lived* crash problem — mutual exclusion under
// eventual weak exclusion (◇-mutex) — and a ◇P-based solution.  It is the
// foil to Section 7.3: bounded problems have no representative AFD
// (Theorem 21), while long-lived problems like this one are exactly where
// representative detectors live (the paper's Lemma 20 examples: eventually
// fair schedulers, dining under eventual weak exclusion [29, 27, 16]).
//
// Problem (◇-mutex over n locations).  Outputs are enter(k)i and exit(k)i
// events (k a round counter).  Admissible traces satisfy:
//
//	well-formedness – at each location, enters and exits strictly
//	                  alternate, starting with enter;
//	eventual exclusion – there is a suffix in which no two locations are
//	                  simultaneously inside the critical section;
//	progress        – every live location enters infinitely often (finite
//	                  reading: at least `window` enters in the suffix).
//
// ◇-mutex is unbounded: its solving automata emit unboundedly many outputs,
// so the Section-7.3 bounded-length classifier refutes any finite bound —
// see TestMutexIsNotBounded.
//
// Algorithm (token circulation over ◇P).  The token carries the round
// number.  The holder enters, exits, and forwards the token to the next
// location it does not currently suspect.  A non-holder that suspects every
// location it believes could hold the token regenerates it.  While ◇P is
// inaccurate, two tokens may coexist and exclusion can be violated; once
// suspicions stabilize, exactly one token survives (higher round wins) —
// eventual exclusion, which is precisely the guarantee class that makes ◇P
// representative for such problems.

// Mutex action names.
const (
	ActNameEnter = "enter"
	ActNameExit  = "exit"
)

// MutexSpec is the ◇-mutex checker.
type MutexSpec struct {
	N int
	// Window is the per-live-location number of enters the stable suffix
	// must contain (default 1).
	Window int
}

func (m MutexSpec) window() int {
	if m.Window <= 0 {
		return 1
	}
	return m.Window
}

// Check verifies a finite ◇-mutex trace (enter/exit/crash events).
func (m MutexSpec) Check(t trace.T) error { return m.check(t, true) }

// check verifies well-formedness, and when complete also eventual
// exclusion and progress.
func (m MutexSpec) check(t trace.T, complete bool) error {
	// Well-formedness: strict alternation per location.
	inside := make(map[ioa.Loc]bool)
	crashed := make(map[ioa.Loc]bool)
	// For eventual exclusion: find the last index at which two locations
	// were simultaneously inside.
	lastViolation := -1
	entersAfter := make(map[ioa.Loc]int)
	for idx, a := range t {
		switch {
		case a.Kind == ioa.KindCrash:
			crashed[a.Loc] = true
			inside[a.Loc] = false // a crashed location no longer occupies the CS
		case a.Kind == ioa.KindEnvOut && a.Name == ActNameEnter:
			if crashed[a.Loc] {
				return fmt.Errorf("problems: enter at %v after crash", a.Loc)
			}
			if inside[a.Loc] {
				return fmt.Errorf("problems: double enter at %v (event %d)", a.Loc, idx)
			}
			inside[a.Loc] = true
		case a.Kind == ioa.KindEnvOut && a.Name == ActNameExit:
			if crashed[a.Loc] {
				return fmt.Errorf("problems: exit at %v after crash", a.Loc)
			}
			if !inside[a.Loc] {
				return fmt.Errorf("problems: exit without enter at %v (event %d)", a.Loc, idx)
			}
			inside[a.Loc] = false
		}
		// Track simultaneous occupancy.
		occupied := 0
		for _, in := range inside {
			if in {
				occupied++
			}
		}
		if occupied > 1 {
			lastViolation = idx
		}
	}
	if !complete {
		return nil
	}
	// Progress + eventual exclusion: after the last violation, every live
	// location enters at least window times.
	for idx, a := range t {
		if idx > lastViolation && a.Kind == ioa.KindEnvOut && a.Name == ActNameEnter {
			entersAfter[a.Loc]++
		}
	}
	for l := ioa.Loc(0); int(l) < m.N; l++ {
		if !crashed[l] && entersAfter[l] < m.window() {
			return fmt.Errorf("problems: live location %v has %d enters in the exclusive suffix, want ≥ %d (progress)",
				l, entersAfter[l], m.window())
		}
	}
	return nil
}

// mutexMachine is the token-circulation algorithm at one location.
type mutexMachine struct {
	system.NopMachine
	n    int
	self ioa.Loc
	susp *consensus.SetSuspector

	hasToken bool
	round    int     // round of the strongest token claim seen (or held)
	origin   ioa.Loc // tie-break of the claim: the location that last used it
	// lastHolder is our best knowledge of who holds the token, and
	// lastSender the location that forwarded it there: if the sender
	// crashed, the forwarded token may never have entered the channel, so
	// the addressee regenerates on suspicion of the sender.
	lastHolder ioa.Loc
	lastSender ioa.Loc
}

// MutexProcs returns the ◇P-based ◇-mutex algorithm: location 0 starts with
// the token.
func MutexProcs(n int, family string) ([]ioa.Automaton, error) {
	out := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		susp, err := consensus.SuspectorFor(family)
		if err != nil {
			return nil, err
		}
		set, ok := susp.(*consensus.SetSuspector)
		if !ok {
			return nil, fmt.Errorf("problems: mutex needs a suspicion-set detector, got %q", family)
		}
		m := &mutexMachine{n: n, self: ioa.Loc(i), susp: set, lastHolder: 0, lastSender: 0}
		if i == 0 {
			m.hasToken = true
		}
		out[i] = system.NewProc("mutex", ioa.Loc(i), n, m, []string{family}, nil)
	}
	return out, nil
}

// OnStart: the initial holder performs its first critical section.
func (m *mutexMachine) OnStart(e *system.Effects) {
	if m.hasToken {
		m.useToken(e)
	}
}

// claimLess orders token claims: (r1,o1) < (r2,o2) lexicographically.
// Duplicate tokens (a ◇P-inaccuracy artifact) therefore always carry
// strictly ordered claims once their rounds tie, and the weaker one dies —
// on arrival at any location that knows the stronger claim, or in the hands
// of its own holder when the stronger claim's announcement lands.
func claimLess(r1 int, o1 ioa.Loc, r2 int, o2 ioa.Loc) bool {
	return r1 < r2 || (r1 == r2 && o1 < o2)
}

// useToken performs enter/exit and forwards the token to the next
// unsuspected location (possibly itself, in which case it goes again on the
// next detector input).
func (m *mutexMachine) useToken(e *system.Effects) {
	m.round++
	m.origin = m.self
	e.Output(ActNameEnter, strconv.Itoa(m.round))
	e.Output(ActNameExit, strconv.Itoa(m.round))
	// Forward to the next location we do not suspect, announcing the new
	// holder to everyone so that token loss is detectable (the announce is
	// what lets the first live successor of a dead holder regenerate).
	for d := 1; d <= m.n; d++ {
		next := ioa.Loc((int(m.self) + d) % m.n)
		if next == m.self {
			// Everyone else suspected: keep the token; we will go again
			// on the next detector input.
			m.lastHolder = m.self
			return
		}
		if !m.susp.Suspects(next) {
			m.hasToken = false
			m.lastHolder = next
			e.Broadcast(m.n, fmt.Sprintf("H|%d|%d|%d|%d", m.round, int(m.origin), int(m.self), int(next)))
			e.Send(next, fmt.Sprintf("T|%d|%d", m.round, int(m.origin)))
			return
		}
	}
}

// OnReceive: accept a token whose round is at least as new as anything we
// have seen (stale duplicate tokens die here once suspicions stabilize);
// track holder announcements.
func (m *mutexMachine) OnReceive(_ ioa.Loc, msg string, e *system.Effects) {
	switch {
	case strings.HasPrefix(msg, "T|"):
		parts := strings.SplitN(msg[2:], "|", 2)
		if len(parts) != 2 {
			return
		}
		r, err1 := strconv.Atoi(parts[0])
		o, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return
		}
		if claimLess(r, ioa.Loc(o), m.round, m.origin) {
			return // weaker claim: the duplicate token dies here
		}
		m.round, m.origin = r, ioa.Loc(o)
		m.hasToken = true
		m.lastHolder = m.self
		m.useToken(e)
	case strings.HasPrefix(msg, "H|"):
		parts := strings.SplitN(msg[2:], "|", 4)
		if len(parts) != 4 {
			return
		}
		r, err1 := strconv.Atoi(parts[0])
		o, err2 := strconv.Atoi(parts[1])
		from, err3 := strconv.Atoi(parts[2])
		to, err4 := strconv.Atoi(parts[3])
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return
		}
		if claimLess(r, ioa.Loc(o), m.round, m.origin) {
			return // news about a weaker claim: ignore
		}
		if m.hasToken && claimLess(m.round, m.origin, r, ioa.Loc(o)) {
			m.hasToken = false // our token is the weaker duplicate: drop it
		}
		m.round, m.origin = r, ioa.Loc(o)
		if !m.hasToken {
			m.lastHolder = ioa.Loc(to)
			m.lastSender = ioa.Loc(from)
		}
	}
}

// OnFD: refresh suspicions; if we hold the token (because everyone was
// suspected), try again; if the believed holder is now suspected, regenerate
// the token — the ◇P-inaccuracy window where duplicates can arise.
func (m *mutexMachine) OnFD(a ioa.Action, e *system.Effects) {
	m.susp.Update(a)
	if m.hasToken {
		m.useToken(e)
		return
	}
	switch {
	case m.susp.Suspects(m.lastHolder) && m.nextAliveFrom(m.lastHolder) == m.self:
		// We are the first live successor of the (believed-dead) holder:
		// regenerate.
		m.regenerate(e)
	case m.lastHolder == m.self && m.susp.Suspects(m.lastSender):
		// A token addressed to us whose forwarder crashed: it may never
		// have entered the channel.  Regenerate; if it was in flight after
		// all, the duplicate is transient (◇-exclusion) and the stale copy
		// dies on arrival (lower round).
		m.regenerate(e)
	}
}

func (m *mutexMachine) regenerate(e *system.Effects) {
	m.hasToken = true
	m.round++ // the regenerated token outranks the one it replaces
	m.lastHolder = m.self
	m.lastSender = m.self
	m.useToken(e)
}

// nextAliveFrom returns the first location after `from` (cyclically) that we
// do not suspect.
func (m *mutexMachine) nextAliveFrom(from ioa.Loc) ioa.Loc {
	for d := 1; d <= m.n; d++ {
		next := ioa.Loc((int(from) + d) % m.n)
		if !m.susp.Suspects(next) {
			return next
		}
	}
	return m.self
}

// Clone implements system.Machine.
func (m *mutexMachine) Clone() system.Machine {
	c := *m
	c.susp = m.susp.Clone().(*consensus.SetSuspector)
	return &c
}

// Encode implements system.Machine.
func (m *mutexMachine) Encode() string {
	return fmt.Sprintf("MX%v|t%t|r%d.%v|h%v|s%v|%s",
		m.self, m.hasToken, m.round, m.origin, m.lastHolder, m.lastSender, m.susp.Encode())
}

// MutexRounds summarizes enters per location, for experiment tables.
func MutexRounds(t trace.T) map[ioa.Loc]int {
	out := make(map[ioa.Loc]int)
	for _, a := range t {
		if a.Kind == ioa.KindEnvOut && a.Name == ActNameEnter {
			out[a.Loc]++
		}
	}
	return out
}

// MutexExclusionViolations counts events at which two or more locations were
// simultaneously inside the critical section — nonzero only during the
// detector's inaccuracy window.
func MutexExclusionViolations(t trace.T) int {
	inside := make(map[ioa.Loc]bool)
	violations := 0
	for _, a := range t {
		switch {
		case a.Kind == ioa.KindCrash:
			inside[a.Loc] = false
		case a.Kind == ioa.KindEnvOut && a.Name == ActNameEnter:
			inside[a.Loc] = true
		case a.Kind == ioa.KindEnvOut && a.Name == ActNameExit:
			inside[a.Loc] = false
		}
		occupied := 0
		for _, in := range inside {
			if in {
				occupied++
			}
		}
		if occupied > 1 {
			violations++
		}
	}
	return violations
}
