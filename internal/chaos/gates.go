package chaos

import (
	"repro/internal/ioa"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// MaxGateLog bounds the veto log recorded per run so artifacts stay small;
// a shrunk reproducer rarely needs more than a handful of vetoes to read.
const MaxGateLog = 256

// GateSpec names the adversarial timing perturbations of a run as plain
// integers, so a (plan, gates, seed, scheduler) tuple fully determines the
// execution and round-trips through a trace.Artifact.
//
// Every perturbation except a never-healing partition is delay-only and
// bounded for non-crash actions, so a gated run is still a prefix of a fair
// execution: delivery delays release after DelayFor steps, the starved
// channel resumes at StarveUntil, a healing partition releases at HealAt,
// and only crash actions — which §4.4 lets a scheduler delay arbitrarily —
// may be held past the end of the run.  A never-healing partition is the
// deliberate exception; EventuallyFair flags it so runs under it are
// checked against safety clauses only.
type GateSpec struct {
	// CrashAfter blocks every crash until the step counter reaches it;
	// CrashGap spaces subsequent releases (sched.CrashesAfter semantics;
	// the compiled gate is freshly constructed per run, per its contract).
	CrashAfter int
	CrashGap   int
	// DelayNth delays every DelayNth-th distinct message delivery by
	// DelayFor steps (both must be positive to take effect).
	DelayNth int
	DelayFor int
	// StarveFrom/StarveTo starve the channel StarveFrom→StarveTo — its
	// deliveries are vetoed — until the step counter reaches StarveUntil.
	// Negative locations disable starvation.
	StarveFrom  int
	StarveTo    int
	StarveUntil int
	// PartitionMask splits the locations into two sides (bit l set =
	// location l on side 1); cross-side deliveries are vetoed from step
	// PartitionAt until step HealAt (sched.Partition semantics: HealAt ≤
	// PartitionAt never heals).  A zero mask disables partitioning.  A
	// never-healing partition makes the run unfair — EventuallyFair
	// reports it, and the runner downgrades to safety-only checking.
	PartitionAt   int
	HealAt        int
	PartitionMask uint64
}

// NoGates is the identity GateSpec.
func NoGates() GateSpec { return GateSpec{StarveFrom: -1, StarveTo: -1} }

// IsZero reports whether the spec perturbs nothing.
func (g GateSpec) IsZero() bool {
	return g.CrashAfter == 0 && g.CrashGap == 0 &&
		(g.DelayNth <= 0 || g.DelayFor <= 0) && !g.starves() && !g.partitions()
}

func (g GateSpec) starves() bool {
	return g.StarveUntil > 0 && g.StarveFrom >= 0 && g.StarveTo >= 0 && g.StarveFrom != g.StarveTo
}

func (g GateSpec) partitions() bool { return g.PartitionMask != 0 }

// EventuallyFair reports whether every perturbation of the spec releases,
// so a gated run under a fair scheduler is still a prefix of a fair
// execution.  Only a never-healing partition (HealAt ≤ PartitionAt with a
// non-zero mask) breaks this: it vetoes cross-side deliveries forever, so
// liveness clauses must not be enforced on the run.
func (g GateSpec) EventuallyFair() bool {
	return !g.partitions() || g.HealAt > g.PartitionAt
}

// Artifact gate-parameter keys.
const (
	keyCrashAfter    = "crashAfter"
	keyCrashGap      = "crashGap"
	keyDelayNth      = "delayNth"
	keyDelayFor      = "delayFor"
	keyStarveFrom    = "starveFrom"
	keyStarveTo      = "starveTo"
	keyStarveUntil   = "starveUntil"
	keyPartitionAt   = "partitionAt"
	keyHealAt        = "healAt"
	keyPartitionMask = "partitionMask"
)

// Params encodes the spec for the artifact schema; zero/disabled fields are
// omitted.
func (g GateSpec) Params() map[string]int {
	m := make(map[string]int)
	if g.CrashAfter > 0 {
		m[keyCrashAfter] = g.CrashAfter
	}
	if g.CrashGap > 0 {
		m[keyCrashGap] = g.CrashGap
	}
	if g.DelayNth > 0 && g.DelayFor > 0 {
		m[keyDelayNth] = g.DelayNth
		m[keyDelayFor] = g.DelayFor
	}
	if g.starves() {
		m[keyStarveFrom] = g.StarveFrom
		m[keyStarveTo] = g.StarveTo
		m[keyStarveUntil] = g.StarveUntil
	}
	if g.partitions() {
		m[keyPartitionAt] = g.PartitionAt
		m[keyHealAt] = g.HealAt
		m[keyPartitionMask] = int(g.PartitionMask)
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

// GatesFromParams decodes Params output.
func GatesFromParams(m map[string]int) GateSpec {
	g := NoGates()
	if m == nil {
		return g
	}
	g.CrashAfter = m[keyCrashAfter]
	g.CrashGap = m[keyCrashGap]
	g.DelayNth = m[keyDelayNth]
	g.DelayFor = m[keyDelayFor]
	if _, ok := m[keyStarveUntil]; ok {
		g.StarveFrom = m[keyStarveFrom]
		g.StarveTo = m[keyStarveTo]
		g.StarveUntil = m[keyStarveUntil]
	}
	if _, ok := m[keyPartitionMask]; ok {
		g.PartitionAt = m[keyPartitionAt]
		g.HealAt = m[keyHealAt]
		g.PartitionMask = uint64(m[keyPartitionMask])
	}
	return g
}

// Compile returns a fresh stateful gate realizing the spec, appending each
// veto (up to MaxGateLog) to *log when log is non-nil.  A nil return means
// no gating at all.  Gates must be compiled once per run: the crash-release
// counter and delivery-delay table are per-execution state.
//
// Concurrency (audited for the live backend): compiled gates and their
// veto log are intentionally sim-only — unsynchronized state consulted
// from a single scheduler loop.  The live backend never compiles gates:
// its timing adversary is the transport (delay, partition) and its loss
// adversary is the channels' own NetSpec, both of which are safe under the
// runtime's step lock.
func (g GateSpec) Compile(log *[]trace.GateVeto) sched.Gate {
	var gates []sched.Gate
	if g.CrashAfter > 0 || g.CrashGap > 0 {
		gates = append(gates, sched.CrashesAfter(g.CrashAfter, g.CrashGap))
	}
	if g.DelayNth > 0 && g.DelayFor > 0 {
		seen := 0
		release := make(map[ioa.Action]int)
		gates = append(gates, func(now int, _ ioa.TaskRef, act ioa.Action) bool {
			if act.Kind != ioa.KindReceive {
				return true
			}
			r, ok := release[act]
			if !ok {
				seen++
				r = now
				if seen%g.DelayNth == 0 {
					r = now + g.DelayFor
				}
				release[act] = r
			}
			return now >= r
		})
	}
	if g.starves() {
		from, to := ioa.Loc(g.StarveFrom), ioa.Loc(g.StarveTo)
		gates = append(gates, func(now int, _ ioa.TaskRef, act ioa.Action) bool {
			if act.Kind == ioa.KindReceive && act.Loc == to && act.Peer == from {
				return now >= g.StarveUntil
			}
			return true
		})
	}
	if g.partitions() {
		gates = append(gates, sched.Partition(g.PartitionMask, g.PartitionAt, g.HealAt))
	}
	if len(gates) == 0 {
		return nil
	}
	inner := sched.Gates(gates...)
	if log == nil {
		return inner
	}
	return func(now int, tr ioa.TaskRef, act ioa.Action) bool {
		ok := inner(now, tr, act)
		if !ok && len(*log) < MaxGateLog {
			*log = append(*log, trace.GateVeto{Step: now, Action: act.String()})
		}
		return ok
	}
}

// observePartition keeps tel's partition life cycle from sys's fired
// events: GPartitionActive flips to 1 at the first event fired at a step
// inside the partition window and back to 0 at the first fired at or after
// HealAt, when the healed duration is also sampled into HPartitionSteps.
// Steps are the scheduler's (the step a gate is consulted at), so the gauge
// tracks exactly the window Compile's partition gate enforces.
func (g GateSpec) observePartition(sys *ioa.System, tel *telemetry.Registry) {
	heals := g.HealAt > g.PartitionAt
	active := false
	sys.AddObserver(func(int, ioa.Action) {
		now := sys.Steps() - 1 // the step this event fired at
		switch {
		case !active && now >= g.PartitionAt && (!heals || now < g.HealAt):
			active = true
			tel.SetGauge(telemetry.GPartitionActive, 1)
		case active && heals && now >= g.HealAt:
			active = false
			tel.SetGauge(telemetry.GPartitionActive, 0)
			tel.Observe(telemetry.HPartitionSteps, int64(g.HealAt-g.PartitionAt))
		}
	})
}
