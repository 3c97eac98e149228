package ioa

import (
	"math/bits"
	"sort"
	"strconv"
)

// LocSet is a location set held as a bitmask over [0, 64), and the one
// representation of a set of locations: faulty(t) and live(t), a
// generator's crashset, the checkers' crashed and live sets, and every
// location-set payload, which ParseLocSet reads and String renders.  The
// repository's detectors name locations 0..n−1 with n ≤ 64, so their
// payloads parse into the mask without allocating.  Members outside
// [0, 64) — expressible only in a handcrafted payload or trace — live in a
// spill map, so every LocSet operation gives the result the map-based
// EncodeLocSet/DecodeLocSet pair would.
//
// The zero value is the empty set.  LocSet values may be copied freely:
// a spill map is never mutated once built (operations that change spill
// members build a new one).
type LocSet struct {
	mask  uint64
	spill map[Loc]bool // members outside [0, 64); nil when there are none
}

// LocSetOfMask returns the set whose members are the one bits of mask
// (bit l for location l).
func LocSetOfMask(mask uint64) LocSet { return LocSet{mask: mask} }

// inMask reports whether l is held in the mask rather than the spill map.
func inMask(l Loc) bool { return l >= 0 && l < 64 }

// ParseLocSet parses a payload into a LocSet.  It accepts and rejects
// exactly what DecodeLocSet does, with the same members and the same
// errors, and allocates nothing when the payload is canonical-shaped
// (digits and commas) with every member below 64.  A sign, a member of 64
// or more, or anything malformed takes DecodeLocSet's map path.
func ParseLocSet(s string) (LocSet, error) {
	if len(s) >= 2 && s[0] == '{' && s[len(s)-1] == '}' {
		if mask, ok := parseMask(s[1 : len(s)-1]); ok {
			return LocSet{mask: mask}, nil
		}
	}
	m, err := DecodeLocSet(s)
	if err != nil {
		return LocSet{}, err
	}
	var set LocSet
	for l := range m {
		if inMask(l) {
			set.mask |= 1 << uint(l)
			delete(m, l)
		}
	}
	if len(m) > 0 {
		set.spill = m
	}
	return set, nil
}

// parseMask scans the body of a location-set payload; ok is false unless
// every comma-separated part is a non-empty run of decimal digits whose
// value is below 64.
func parseMask(body string) (mask uint64, ok bool) {
	if body == "" {
		return 0, true
	}
	v, digits := 0, 0
	for i := 0; i <= len(body); i++ {
		if i == len(body) || body[i] == ',' {
			if digits == 0 {
				return 0, false
			}
			mask |= 1 << uint(v)
			v, digits = 0, 0
			continue
		}
		c := body[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if v = v*10 + int(c-'0'); v >= 64 {
			return 0, false
		}
		digits++
	}
	return mask, true
}

// Has reports whether l is a member.
func (s LocSet) Has(l Loc) bool {
	if inMask(l) {
		return s.mask&(1<<uint(l)) != 0
	}
	return s.spill[l]
}

// Len returns the number of members.
func (s LocSet) Len() int { return bits.OnesCount64(s.mask) + len(s.spill) }

// IsEmpty reports whether the set has no members.
func (s LocSet) IsEmpty() bool { return s.mask == 0 && len(s.spill) == 0 }

// Add inserts l.
func (s *LocSet) Add(l Loc) {
	if inMask(l) {
		s.mask |= 1 << uint(l)
		return
	}
	s.spill = spillWhere(s.spill, map[Loc]bool{l: true}, nil)
}

// Remove deletes l.
func (s *LocSet) Remove(l Loc) {
	if inMask(l) {
		s.mask &^= 1 << uint(l)
		return
	}
	if s.spill[l] {
		s.spill = spillWhere(s.spill, nil, func(m Loc) bool { return m != l })
	}
}

// Union returns s ∪ o.
func (s LocSet) Union(o LocSet) LocSet {
	u := LocSet{mask: s.mask | o.mask}
	if len(s.spill)+len(o.spill) > 0 {
		u.spill = spillWhere(s.spill, o.spill, nil)
	}
	return u
}

// Minus returns s \ o.
func (s LocSet) Minus(o LocSet) LocSet {
	d := LocSet{mask: s.mask &^ o.mask}
	if len(s.spill) > 0 {
		d.spill = spillWhere(s.spill, nil, func(l Loc) bool { return !o.spill[l] })
	}
	return d
}

// Intersect returns s ∩ o.
func (s LocSet) Intersect(o LocSet) LocSet {
	d := LocSet{mask: s.mask & o.mask}
	if len(s.spill) > 0 {
		d.spill = spillWhere(s.spill, nil, func(l Loc) bool { return o.spill[l] })
	}
	return d
}

// spillWhere returns a new spill map holding the members of a and b that
// keep accepts (all of them when keep is nil), or nil when there are none.
func spillWhere(a, b map[Loc]bool, keep func(Loc) bool) map[Loc]bool {
	var m map[Loc]bool
	for _, src := range [2]map[Loc]bool{a, b} {
		for l := range src {
			if keep == nil || keep(l) {
				if m == nil {
					m = make(map[Loc]bool)
				}
				m[l] = true
			}
		}
	}
	return m
}

// SubsetOf reports whether every member of s is a member of o.
func (s LocSet) SubsetOf(o LocSet) bool { return s.Minus(o).IsEmpty() }

// Equal reports whether s and o have the same members.
func (s LocSet) Equal(o LocSet) bool { return s.SubsetOf(o) && o.SubsetOf(s) }

// Intersects reports whether s and o share a member.
func (s LocSet) Intersects(o LocSet) bool { return !s.Intersect(o).IsEmpty() }

// AppendMembers appends the members to dst in ascending order.
func (s LocSet) AppendMembers(dst []Loc) []Loc {
	var spill []int
	if len(s.spill) > 0 {
		spill = make([]int, 0, len(s.spill))
		for l := range s.spill {
			spill = append(spill, int(l))
		}
		sort.Ints(spill)
	}
	i := 0
	for ; i < len(spill) && spill[i] < 0; i++ {
		dst = append(dst, Loc(spill[i]))
	}
	for m := s.mask; m != 0; m &= m - 1 {
		dst = append(dst, Loc(bits.TrailingZeros64(m)))
	}
	for ; i < len(spill); i++ {
		dst = append(dst, Loc(spill[i]))
	}
	return dst
}

// AppendEncode appends the set's EncodeLocSet rendering to dst, e.g.
// {2,0,1} → "{0,1,2}".
func (s LocSet) AppendEncode(dst []byte) []byte {
	dst = append(dst, '{')
	if len(s.spill) > 0 {
		for i, l := range s.AppendMembers(nil) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(l), 10)
		}
		return append(dst, '}')
	}
	for m := s.mask; m != 0; {
		dst = strconv.AppendInt(dst, int64(bits.TrailingZeros64(m)), 10)
		if m &= m - 1; m != 0 {
			dst = append(dst, ',')
		}
	}
	return append(dst, '}')
}

// String returns the set's EncodeLocSet rendering.
func (s LocSet) String() string {
	var buf [64]byte
	return string(s.AppendEncode(buf[:0]))
}
