package ioa

import "fmt"

// CheckDeterminism replays a schedule and verifies the task-determinism
// contract of Section 2.5 plus the Clone contract:
//
//	(1) Enabled is stable: two consecutive queries in the same state return
//	    the same action;
//	(2) Clone isolates state: advancing the system leaves a prior clone's
//	    encoding untouched;
//	(3) transitions are deterministic: replaying the recorded actions from
//	    the cloned start state reproduces the final encoding exactly.
//
// The schedule is a sequence of task references; disabled tasks are skipped
// (that is the schedulers' behavior, not an error).  The system is advanced
// in place; pass a Clone to keep the original.
func CheckDeterminism(sys *System, schedule []TaskRef) error {
	snap := sys.CloneBare()
	snapEnc := snap.Encode()

	type firing struct {
		tr  TaskRef
		act Action
	}
	var fired []firing
	for step, tr := range schedule {
		if tr.Auto < 0 || tr.Auto >= len(sys.autos) {
			return fmt.Errorf("ioa: schedule step %d references automaton %d of %d", step, tr.Auto, len(sys.autos))
		}
		a1, ok1 := sys.Enabled(tr)
		a2, ok2 := sys.Enabled(tr)
		if ok1 != ok2 || a1 != a2 {
			return fmt.Errorf("ioa: step %d task %v: Enabled unstable (%v,%t vs %v,%t)",
				step, tr, a1, ok1, a2, ok2)
		}
		if !ok1 {
			continue
		}
		sys.Apply(tr.Auto, a1)
		fired = append(fired, firing{tr: tr, act: a1})
	}

	if snap.Encode() != snapEnc {
		return fmt.Errorf("ioa: advancing the system mutated a prior clone (Clone shares state)")
	}

	// Replay on the snapshot: same enabled actions, same final state.
	for i, f := range fired {
		act, ok := snap.Enabled(f.tr)
		if !ok || act != f.act {
			return fmt.Errorf("ioa: replay step %d task %v: enabled (%v,%t), recorded %v (nondeterministic)",
				i, f.tr, act, ok, f.act)
		}
		snap.Apply(f.tr.Auto, act)
	}
	if snap.Encode() != sys.Encode() {
		return fmt.Errorf("ioa: replay diverged from original run (nondeterministic transition or lossy AppendEncode)")
	}
	return nil
}

// RoundRobinSchedule returns k cycles of the system's task list, the
// canonical fair schedule used with CheckDeterminism.
func RoundRobinSchedule(sys *System, cycles int) []TaskRef {
	tasks := sys.Tasks()
	out := make([]TaskRef, 0, len(tasks)*cycles)
	for c := 0; c < cycles; c++ {
		out = append(out, tasks...)
	}
	return out
}
