package system

import (
	"repro/internal/ioa"
	"repro/internal/telemetry"
)

// Instrument wires tel through a composed system: the system's own
// registry, the queue-depth registry of every channel automaton (Channel
// and TrackedChannel both qualify via the promoted SetTelemetry), and the
// per-task fire-vector labels, so snapshots report actions fired per task
// by name ("p0/step", "chan[0>1]/deliver").  The scheduler takes the same
// registry as sched.Options.Telemetry.  A nil tel leaves the system
// uninstrumented.
func Instrument(sys *ioa.System, tel *telemetry.Registry) {
	if tel == nil {
		return
	}
	sys.SetTelemetry(tel)
	for _, a := range sys.Automata() {
		if c, ok := a.(interface{ SetTelemetry(*telemetry.Registry) }); ok {
			c.SetTelemetry(tel)
		}
	}
	tasks := sys.Tasks()
	labels := make([]string, len(tasks))
	for i, tr := range tasks {
		labels[i] = sys.TaskLabel(tr)
	}
	tel.SetTaskLabels(labels)
}
