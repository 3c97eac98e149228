package problems

import "repro/internal/trace"

// The Checker methods below adapt each problem specification to the uniform
// run-verdict signature func(trace.T) error shared with afd.Checker and
// consensus.Spec.Checker, so sweep drivers (the chaos harness, cmd/chaos)
// can treat "run the system, then judge the trace" identically for every
// specification in the repository.  Each checker already filters the full
// trace by action kind internally, so no projection is needed here.

// Checker returns the uniform-verdict adapter for leader election.
func (p LeaderElection) Checker(complete bool) func(trace.T) error {
	return func(t trace.T) error { return p.Check(t, complete) }
}

// Checker returns the uniform-verdict adapter for k-set agreement.
func (p KSetAgreement) Checker(complete bool) func(trace.T) error {
	return func(t trace.T) error { return p.Check(t, complete) }
}

// Checker returns the uniform-verdict adapter for non-blocking atomic commit.
func (p NBAC) Checker(complete bool) func(trace.T) error {
	return func(t trace.T) error { return p.Check(t, complete) }
}

// Checker returns the uniform-verdict adapter for uniform reliable broadcast.
func (u URBSpec) Checker(complete bool) func(trace.T) error {
	return func(t trace.T) error { return u.Check(t, complete) }
}

// Checker returns the uniform-verdict adapter for terminating reliable
// broadcast.
func (s TRBSpec) Checker(complete bool) func(trace.T) error {
	return func(t trace.T) error { return s.Check(t, complete) }
}

// Checker returns the uniform-verdict adapter for ◇-mutex.  Eventual
// exclusion and progress are liveness clauses, so a prefix (complete false)
// is held to well-formedness only.
func (m MutexSpec) Checker(complete bool) func(trace.T) error {
	return func(t trace.T) error { return m.check(t, complete) }
}
