package causal

import "repro/internal/telemetry"

// flowStepNs is the synthetic clock used when a record carries no wall-clock
// stamps: one microsecond per trace event, so simulated chains render with
// legible spacing in Perfetto.
const flowStepNs = 1_000

// flowTS maps an event to a trace timestamp: the record's own stamp when
// present, else the synthetic step clock.
func (d *DAG) flowTS(ev int) int64 {
	if ts := d.StampNs(ev); ts >= 0 {
		return ts
	}
	return int64(ev) * flowStepNs
}

// EmitFlows overlays an explanation onto a telemetry registry as
// Chrome-trace flow events: one arrow (ph "s" at the send, ph "f" at the
// delivery) per message edge of the chain, each end on its location's
// track, plus an instant event per chain link so the annotated events are
// visible even where the execution trace recorded nothing.  It returns the
// number of arrows; a nil registry records nothing.
func EmitFlows(tel *telemetry.Registry, d *DAG, ex *Explanation) int {
	arrows := 0
	for k := range ex.Chain {
		link := ex.Chain[k]
		tel.InstantAt(telemetry.CatCausal, link.Action, d.flowTS(link.Event),
			int32(link.Loc), int64(link.Event))
		if link.EdgeToNext != EdgeMessage.String() || k+1 >= len(ex.Chain) {
			continue
		}
		next := ex.Chain[k+1]
		// The arrow's identity is the edge itself: send and delivery event
		// indices packed into one id, unique within a trace.
		id := uint64(link.Event)<<32 | uint64(next.Event)
		tel.FlowAt(telemetry.FlowStart, telemetry.CatCausal, "suspicion-chain",
			id, d.flowTS(link.Event), int32(link.Loc))
		tel.FlowAt(telemetry.FlowFinish, telemetry.CatCausal, "suspicion-chain",
			id, d.flowTS(next.Event), int32(next.Loc))
		arrows++
	}
	return arrows
}
