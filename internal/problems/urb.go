package problems

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/trace"
)

// Uniform Reliable Broadcast (URB), named in Section 1.1 as the problem
// whose weakest failure detector hinges on whether detectors may carry
// information beyond crashes [1, 19].  Specification, for broadcast(m)i
// inputs and deliver(m, src)j outputs:
//
//	integrity         – each location delivers a given (src, seq) at most
//	                    once, and only if src broadcast it;
//	validity          – if a live location broadcasts, every live location
//	                    delivers it;
//	uniform agreement – if ANY location (even one that later crashes)
//	                    delivers a message, every live location delivers it.
//
// Two solvers:
//
//   - URBMajorityProcs: the classic detector-free diffusion algorithm;
//     deliver after receiving echoes from a majority.  Requires f < n/2.
//   - URBPerfectProcs: the P-based variant — deliver after hearing an echo
//     from every unsuspected location.  Tolerates f ≤ n−1; strong accuracy
//     makes skipping a suspected location safe, strong completeness makes
//     the wait terminate.

// URB action names.
const (
	ActNameBroadcast = "urb-bcast"
	ActNameDeliver   = "urb-deliver"
)

// URBSpec checks URB traces.  complete enforces the delivery liveness
// halves (validity, uniform agreement).
type URBSpec struct{ N int }

// Check verifies a finite URB trace over broadcast/deliver/crash events.
// Deliver payloads are "src:seq:value"; broadcast payloads are the value.
func (u URBSpec) Check(t trace.T, complete bool) error {
	type msg struct {
		src ioa.Loc
		seq int
	}
	crashed := make(map[ioa.Loc]bool)
	bcastSeq := make(map[ioa.Loc]int)
	sent := make(map[msg]string)
	var order []msg // sent's keys in broadcast order
	delivered := make(map[msg]map[ioa.Loc]bool)
	for _, a := range t {
		switch {
		case a.Kind == ioa.KindCrash:
			crashed[a.Loc] = true
		case a.Kind == ioa.KindEnvIn && a.Name == ActNameBroadcast:
			bcastSeq[a.Loc]++
			m := msg{a.Loc, bcastSeq[a.Loc]}
			sent[m] = a.Payload
			order = append(order, m)
		case a.Kind == ioa.KindEnvOut && a.Name == ActNameDeliver:
			if crashed[a.Loc] {
				return fmt.Errorf("problems: deliver at %v after crash", a.Loc)
			}
			src, seq, val, err := splitURB(a.Payload)
			if err != nil {
				return err
			}
			m := msg{src, seq}
			want, ok := sent[m]
			if !ok {
				return fmt.Errorf("problems: delivered never-broadcast message %v (integrity)", a)
			}
			if val != want {
				return fmt.Errorf("problems: delivered %q for %v, broadcast was %q", val, m, want)
			}
			if delivered[m] == nil {
				delivered[m] = make(map[ioa.Loc]bool)
			}
			if delivered[m][a.Loc] {
				return fmt.Errorf("problems: %v delivered twice at %v (integrity)", m, a.Loc)
			}
			delivered[m][a.Loc] = true
		}
	}
	if !complete {
		return nil
	}
	// Messages are visited in broadcast order and live locations in
	// location order, so a failing trace always names the same miss.
	// Validity: a live broadcaster's messages reach all live locations.
	for _, m := range order {
		if crashed[m.src] {
			continue
		}
		for l := ioa.Loc(0); int(l) < u.N; l++ {
			if !crashed[l] && !delivered[m][l] {
				return fmt.Errorf("problems: live broadcast %v not delivered at live %v (validity)", m, l)
			}
		}
	}
	// Uniform agreement: any delivery anywhere forces delivery at all live.
	for _, m := range order {
		who := delivered[m]
		if len(who) == 0 {
			continue
		}
		for l := ioa.Loc(0); int(l) < u.N; l++ {
			if !crashed[l] && !who[l] {
				return fmt.Errorf("problems: %v delivered somewhere but not at live %v (uniform agreement)", m, l)
			}
		}
	}
	return nil
}

func splitURB(p string) (ioa.Loc, int, string, error) {
	parts := strings.SplitN(p, ":", 3)
	if len(parts) != 3 {
		return 0, 0, "", fmt.Errorf("problems: malformed URB payload %q", p)
	}
	src, err := ioa.DecodeLoc(parts[0])
	if err != nil {
		return 0, 0, "", err
	}
	var seq int
	if _, err := fmt.Sscanf(parts[1], "%d", &seq); err != nil {
		return 0, 0, "", fmt.Errorf("problems: malformed URB seq %q", parts[1])
	}
	return src, seq, parts[2], nil
}

// urbMachine implements both URB variants: usePerfect selects the P-based
// wait; otherwise the majority rule applies.
type urbMachine struct {
	system.NopMachine
	n          int
	self       ioa.Loc
	usePerfect bool
	susp       *consensus.SetSuspector

	seq       int
	echoes    map[string]map[ioa.Loc]bool // message id → echoers (incl. self)
	vals      map[string]string           // message id → value
	relayed   map[string]bool
	delivered map[string]bool
}

func newURBMachine(n int, self ioa.Loc, usePerfect bool, susp *consensus.SetSuspector) *urbMachine {
	return &urbMachine{
		n: n, self: self, usePerfect: usePerfect, susp: susp,
		echoes:    make(map[string]map[ioa.Loc]bool),
		vals:      make(map[string]string),
		relayed:   make(map[string]bool),
		delivered: make(map[string]bool),
	}
}

// URBMajorityProcs returns the detector-free diffusion algorithm (f < n/2).
func URBMajorityProcs(n int) []ioa.Automaton {
	out := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		m := newURBMachine(n, ioa.Loc(i), false, consensus.NewSetSuspector())
		out[i] = system.NewProc("urb", ioa.Loc(i), n, m, nil, []string{ActNameBroadcast})
	}
	return out
}

// URBPerfectProcs returns the P-based algorithm (f ≤ n−1).
func URBPerfectProcs(n int, family string) ([]ioa.Automaton, error) {
	out := make([]ioa.Automaton, n)
	for i := 0; i < n; i++ {
		set, err := setSuspector("URB", family)
		if err != nil {
			return nil, err
		}
		m := newURBMachine(n, ioa.Loc(i), true, set)
		out[i] = system.NewProc("urb", ioa.Loc(i), n, m, []string{family}, []string{ActNameBroadcast})
	}
	return out, nil
}

func (m *urbMachine) OnEnvInput(name, payload string, e *system.Effects) {
	if name != ActNameBroadcast {
		return
	}
	m.seq++
	id := fmt.Sprintf("%v:%d:%s", m.self, m.seq, payload)
	m.learn(id, e)
}

// learn records the message, echoes it once, and re-evaluates delivery.
func (m *urbMachine) learn(id string, e *system.Effects) {
	if m.echoes[id] == nil {
		m.echoes[id] = make(map[ioa.Loc]bool)
	}
	m.echoes[id][m.self] = true
	if !m.relayed[id] {
		m.relayed[id] = true
		e.Broadcast(m.n, "E|"+id)
	}
	m.maybeDeliver(id, e)
}

func (m *urbMachine) OnReceive(from ioa.Loc, msg string, e *system.Effects) {
	if !strings.HasPrefix(msg, "E|") {
		return
	}
	id := msg[2:]
	if m.echoes[id] == nil {
		m.echoes[id] = make(map[ioa.Loc]bool)
	}
	m.echoes[id][from] = true
	m.learn(id, e)
}

// OnFD re-evaluates every known message in id order: one detector output
// can release several deliveries, and map order would make their order in
// the trace vary from run to run.
func (m *urbMachine) OnFD(a ioa.Action, e *system.Effects) {
	m.susp.Update(a)
	for _, id := range m.sortedIDs() {
		m.maybeDeliver(id, e)
	}
}

// sortedIDs returns the known message ids in order.
func (m *urbMachine) sortedIDs() []string {
	ids := make([]string, 0, len(m.echoes))
	for id := range m.echoes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (m *urbMachine) maybeDeliver(id string, e *system.Effects) {
	if m.delivered[id] {
		return
	}
	if m.usePerfect {
		for q := 0; q < m.n; q++ {
			l := ioa.Loc(q)
			if !m.echoes[id][l] && !m.susp.Suspects(l) {
				return
			}
		}
	} else if len(m.echoes[id]) < m.n/2+1 {
		return
	}
	m.delivered[id] = true
	e.Output(ActNameDeliver, id)
}

// Clone implements system.Machine.
func (m *urbMachine) Clone() system.Machine {
	c := newURBMachine(m.n, m.self, m.usePerfect, m.susp.Clone().(*consensus.SetSuspector))
	c.seq = m.seq
	for id, who := range m.echoes {
		inner := make(map[ioa.Loc]bool, len(who))
		for l, b := range who {
			inner[l] = b
		}
		c.echoes[id] = inner
	}
	for id, v := range m.vals {
		c.vals[id] = v
	}
	for id, b := range m.relayed {
		c.relayed[id] = b
	}
	for id, b := range m.delivered {
		c.delivered[id] = b
	}
	return c
}

// Encode implements system.Machine.
func (m *urbMachine) Encode() string {
	var b strings.Builder
	fmt.Fprintf(&b, "UR%v|%d|", m.self, m.seq)
	for _, id := range m.sortedIDs() {
		fmt.Fprintf(&b, "[%s:%s:r%t:d%t]", id, ioa.EncodeLocSet(m.echoes[id]), m.relayed[id], m.delivered[id])
	}
	b.WriteString(m.susp.Encode())
	return b.String()
}

// NewBroadcasterEnv returns the environment broadcasting value once at id
// and absorbing the deliveries there.
func NewBroadcasterEnv(id ioa.Loc, value string) ioa.Automaton {
	return newEnv("bcaster", "broadcast", ioa.EnvInput(ActNameBroadcast, id, value), 1, ioa.KindEnvOut, ActNameDeliver)
}
