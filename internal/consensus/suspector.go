package consensus

import (
	"strconv"

	"repro/internal/ioa"
)

// Suspector adapts a failure detector's output stream into the suspicion
// queries the rotating-coordinator algorithm asks: "should I stop waiting
// for location c?".  Adapters exist for the suspicion-set detectors (P, ◇P,
// S, ◇S: suspect exactly the payload set) and for Ω (suspect everyone except
// the current leader).  A process trusts everyone until the first detector
// output arrives.
type Suspector interface {
	// Update consumes a failure-detector output event at this location.
	Update(a ioa.Action)
	// Suspects reports whether c is currently suspected.
	Suspects(c ioa.Loc) bool
	// Clone returns an independent deep copy.
	Clone() Suspector
	// AppendEncode appends a canonical encoding of the suspector state to
	// dst and returns the extended slice.
	AppendEncode(dst []byte) []byte
}

// SetSuspector suspects exactly the locations in the last suspicion-set
// payload received.
//
// The set is an ioa.LocSet — a 64-bit mask, not a map: consensus machines
// are cloned once per node by the execution-tree explorer, and the
// suspicion set was one of the per-clone map allocations that dominated its
// profile.  Payloads naming a location outside [0, 64) — impossible for the
// repository's detectors, whose locations are 0..n-1 with n ≤ 64, but
// expressible in a handcrafted trace — spill into the set's map, so
// behavior is unchanged.
type SetSuspector struct {
	set  ioa.LocSet
	seen bool // a payload has been received (distinguishes ∅ from never-updated)
}

var _ Suspector = (*SetSuspector)(nil)

// NewSetSuspector returns a suspector for suspicion-set detectors.
func NewSetSuspector() *SetSuspector { return &SetSuspector{} }

// Update implements Suspector.
func (s *SetSuspector) Update(a ioa.Action) {
	set, err := ioa.ParseLocSet(a.Payload)
	if err != nil {
		return // malformed payloads leave the suspicion state unchanged
	}
	s.set, s.seen = set, true
}

// Suspects implements Suspector.
func (s *SetSuspector) Suspects(c ioa.Loc) bool { return s.set.Has(c) }

// Clone implements Suspector.  The set is a value whose spill map is never
// mutated, so the copy shares nothing mutable.
func (s *SetSuspector) Clone() Suspector {
	c := *s
	return &c
}

// AppendEncode implements Suspector.
func (s *SetSuspector) AppendEncode(dst []byte) []byte {
	if !s.seen {
		return append(dst, "S:-"...)
	}
	return s.set.AppendEncode(append(dst, "S:"...))
}

// LeaderSuspector suspects every location other than the last Ω output.
// Before the first output it suspects no one.
type LeaderSuspector struct {
	leader ioa.Loc
	seen   bool
}

var _ Suspector = (*LeaderSuspector)(nil)

// NewLeaderSuspector returns a suspector for leader-election detectors.
func NewLeaderSuspector() *LeaderSuspector { return &LeaderSuspector{leader: ioa.NoLoc} }

// Update implements Suspector.
func (s *LeaderSuspector) Update(a ioa.Action) {
	l, err := ioa.DecodeLoc(a.Payload)
	if err != nil {
		return
	}
	s.leader = l
	s.seen = true
}

// Suspects implements Suspector.
func (s *LeaderSuspector) Suspects(c ioa.Loc) bool { return s.seen && c != s.leader }

// Leader returns the current leader view (NoLoc before the first output).
func (s *LeaderSuspector) Leader() ioa.Loc {
	if !s.seen {
		return ioa.NoLoc
	}
	return s.leader
}

// Clone implements Suspector.
func (s *LeaderSuspector) Clone() Suspector {
	c := *s
	return &c
}

// AppendEncode implements Suspector.
func (s *LeaderSuspector) AppendEncode(dst []byte) []byte {
	dst = append(dst, "L:"...)
	dst = s.leader.AppendTo(dst)
	dst = append(dst, ':')
	return strconv.AppendBool(dst, s.seen)
}

// NeverSuspector never suspects anyone — the "no failure detector"
// degenerate adapter used by the FLP demonstrations: with it, the algorithm
// blocks forever on a crashed coordinator.
type NeverSuspector struct{}

var _ Suspector = NeverSuspector{}

// Update implements Suspector.
func (NeverSuspector) Update(ioa.Action) {}

// Suspects implements Suspector.
func (NeverSuspector) Suspects(ioa.Loc) bool { return false }

// Clone implements Suspector.
func (NeverSuspector) Clone() Suspector { return NeverSuspector{} }

// AppendEncode implements Suspector.
func (NeverSuspector) AppendEncode(dst []byte) []byte { return append(dst, 'N') }
