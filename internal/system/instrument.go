package system

import (
	"repro/internal/ioa"
	"repro/internal/telemetry"
)

// Instrument wires tel through a composed system: the system's own sink,
// the queue-depth sink of every channel automaton (Channel and
// TrackedChannel both qualify via the promoted SetTelemetry), and, when tel
// is a *telemetry.Registry, the per-task fire-vector labels, so snapshots
// report actions fired per task by name ("p0/step", "chan[0>1]/deliver").
// The scheduler takes the same sink as sched.Options.Telemetry.  A nil tel
// leaves the system uninstrumented.
func Instrument(sys *ioa.System, tel telemetry.Sink) {
	if tel == nil {
		return
	}
	sys.SetTelemetry(tel)
	for _, a := range sys.Automata() {
		if c, ok := a.(interface{ SetTelemetry(telemetry.Sink) }); ok {
			c.SetTelemetry(tel)
		}
	}
	if reg, ok := tel.(*telemetry.Registry); ok {
		tasks := sys.Tasks()
		labels := make([]string, len(tasks))
		for i, tr := range tasks {
			labels[i] = sys.TaskLabel(tr)
		}
		reg.SetTaskLabels(labels)
	}
}
