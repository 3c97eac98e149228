package trace

import (
	"fmt"

	"repro/internal/ioa"
)

// jsonEvent is the wire form of one event.
type jsonEvent struct {
	Kind    string   `json:"kind"`
	Name    string   `json:"name,omitempty"`
	Loc     ioa.Loc  `json:"loc"`
	Peer    *ioa.Loc `json:"peer,omitempty"` // only for send/receive
	Payload string   `json:"payload,omitempty"`
}

var kindNames = map[ioa.Kind]string{
	ioa.KindCrash:    "crash",
	ioa.KindSend:     "send",
	ioa.KindReceive:  "receive",
	ioa.KindFD:       "fd",
	ioa.KindEnvIn:    "envin",
	ioa.KindEnvOut:   "envout",
	ioa.KindInternal: "internal",
}

var kindValues = func() map[string]ioa.Kind {
	m := make(map[string]ioa.Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// encodeEvents converts a trace to its wire form.
func encodeEvents(t T) []jsonEvent {
	events := make([]jsonEvent, len(t))
	for i, a := range t {
		events[i] = jsonEvent{
			Kind:    kindNames[a.Kind],
			Name:    a.Name,
			Loc:     a.Loc,
			Payload: a.Payload,
		}
		if a.Kind == ioa.KindSend || a.Kind == ioa.KindReceive {
			peer := a.Peer
			events[i].Peer = &peer
		}
	}
	return events
}

// decodeEvents converts wire events back to a trace.
func decodeEvents(events []jsonEvent) (T, error) {
	out := make(T, len(events))
	for i, e := range events {
		k, ok := kindValues[e.Kind]
		if !ok {
			return nil, fmt.Errorf("trace: event %d has unknown kind %q", i, e.Kind)
		}
		peer := ioa.NoLoc
		if k == ioa.KindSend || k == ioa.KindReceive {
			if e.Peer == nil {
				return nil, fmt.Errorf("trace: event %d (%s) lacks peer", i, e.Kind)
			}
			peer = *e.Peer
		}
		name := e.Name
		if name == "" && k == ioa.KindCrash {
			name = "crash"
		}
		if name == "" && k != ioa.KindCrash {
			return nil, fmt.Errorf("trace: event %d (%s) lacks name", i, e.Kind)
		}
		out[i] = ioa.Action{Kind: k, Name: name, Loc: e.Loc, Peer: peer, Payload: e.Payload}
	}
	return out, nil
}
