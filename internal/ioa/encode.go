package ioa

import "strconv"

// PostFireEncoder is an optional Automaton extension for delta encoders:
// AppendEncodePostFire appends the encoding the automaton WOULD have after
// Fire(a) — without mutating it — and reports whether it could.  A false
// return means the caller must fall back to Clone+Fire+AppendEncode.
// Useful for automata whose Fire only dequeues (process outboxes, channel
// queues): the successor encoding is rendered directly, skipping a deep
// clone.
//
// Contract: when ok, the appended bytes must equal
// Clone()+Fire(a)+AppendEncode() exactly, and the receiver must be
// unchanged.  CheckAutomatonContract checks both for every enabled action.
type PostFireEncoder interface {
	AppendEncodePostFire(a Action, dst []byte) (res []byte, ok bool)
}

// PostInputEncoder is the input-side analogue of PostFireEncoder:
// AppendEncodePostInput appends the encoding the automaton would have after
// Input(a), without mutating it, when it can do so cheaply.
//
// Contract: when ok, the appended bytes must equal
// Clone()+Input(a)+AppendEncode() exactly, and the receiver must be
// unchanged.  CheckAutomatonContract checks both for the inputs it is given.
type PostInputEncoder interface {
	AppendEncodePostInput(a Action, dst []byte) (res []byte, ok bool)
}

// EncSep is the byte separating component encodings inside a System
// encoding (one automaton encoding per segment, in composition order).
// Exposed for drivers that delta-encode a successor state by splicing
// changed component segments into the parent's encoding; component
// encodings normally never contain it, and splicers must verify that (a
// clean encoding of a k-automaton system contains exactly k−1 EncSep
// bytes) before trusting segment boundaries.
const EncSep = '\x1e'

// AppendEncode appends the canonical encoding of the composed state to dst
// and returns the extended slice: the automata's encodings in composition
// order, separated by EncSep.  Two systems with equal encodings are in
// identical states (the paper's config tags, Section 8.2).
func (s *System) AppendEncode(dst []byte) []byte {
	for i, a := range s.autos {
		if i > 0 {
			dst = append(dst, EncSep)
		}
		dst = a.AppendEncode(dst)
	}
	return dst
}

// Encode returns AppendEncode's bytes as a string, for callers that compare
// or digest whole states off the hot path (CheckDeterminism, the golden
// trace hashes).
func (s *System) Encode() (enc string) { return string(s.AppendEncode(nil)) }

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// HashSeed is the initial value for HashBytes chains.
const HashSeed = uint64(fnvOffset)

// HashBytes folds b into the running FNV-1a hash h.
func HashBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// AppendTo appends l.String() ("⊥" for NoLoc, decimal otherwise) to dst.
func (l Loc) AppendTo(dst []byte) []byte {
	if l == NoLoc {
		return append(dst, "⊥"...)
	}
	return strconv.AppendInt(dst, int64(l), 10)
}

// AppendTo appends the Action's String() rendering to dst without the
// fmt-driven allocations, for encoders that embed actions in state strings.
func (a Action) AppendTo(dst []byte) []byte {
	switch a.Kind {
	case 0:
		return append(dst, "⊥"...)
	case KindCrash:
		dst = append(dst, "crash_"...)
		return a.Loc.AppendTo(dst)
	case KindSend:
		dst = append(dst, "send("...)
		dst = append(dst, a.Payload...)
		dst = append(dst, ',')
		dst = a.Peer.AppendTo(dst)
		dst = append(dst, ")_"...)
		return a.Loc.AppendTo(dst)
	case KindReceive:
		dst = append(dst, "receive("...)
		dst = append(dst, a.Payload...)
		dst = append(dst, ',')
		dst = a.Peer.AppendTo(dst)
		dst = append(dst, ")_"...)
		return a.Loc.AppendTo(dst)
	default:
		dst = append(dst, a.Name...)
		if a.Payload != "" {
			dst = append(dst, '(')
			dst = append(dst, a.Payload...)
			dst = append(dst, ')')
		}
		dst = append(dst, '_')
		return a.Loc.AppendTo(dst)
	}
}
