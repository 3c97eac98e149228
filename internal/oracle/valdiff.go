package oracle

import (
	"bytes"
	"fmt"
	"runtime"

	"repro/internal/valence"
)

// DiffOptions configures DiffExplorers.
type DiffOptions struct {
	// Workers is the engine's worker count (0 = GOMAXPROCS, forced to at
	// least 2 so single-CPU machines still exercise work stealing and the
	// shared memo index).
	Workers int
	// MaxHooks bounds the hook reports compared (0 = 64).  Hook scans are
	// prefix-exact, so comparing a bounded prefix compares the same scan.
	MaxHooks int
}

func (o DiffOptions) workers() int {
	if o.Workers > 1 {
		return o.Workers
	}
	if w := runtime.GOMAXPROCS(0); w > 1 {
		return w
	}
	return 2
}

func (o DiffOptions) maxHooks() int {
	if o.MaxHooks <= 0 {
		return 64
	}
	return o.MaxHooks
}

// DiffExplorers runs the reference explorer (valence.ExploreReference) and
// the engine (valence.Explorer.Explore) on the same valence.Config and diffs
// the results node-by-node: stats, then per-NodeID the FD index, valence,
// state encoding, and out-edge list, then the hook reports and their
// Theorem-59 verification.  The engine's renumbering pass promises tables
// byte-identical to the reference's BFS at any worker count; a mismatch here
// names the first divergent NodeID instead of an aggregate hash.
func DiffExplorers(cfg valence.Config, opts DiffOptions) error {
	ser, err := valence.ExploreReference(cfg)
	if err != nil {
		return fmt.Errorf("oracle: serial exploration: %w", err)
	}
	pcfg := cfg
	pcfg.Workers = opts.workers()
	pcfg.Progress = nil
	par, err := explore(pcfg)
	if err != nil {
		return fmt.Errorf("oracle: parallel exploration (%d workers): %w", pcfg.Workers, err)
	}

	if ss, ps := ser.Stats(), par.Stats(); ss != ps {
		return fmt.Errorf("oracle: serial stats %+v, parallel stats %+v (oracle-valence-stats)", ss, ps)
	}
	for id := 0; id < ser.NumNodes(); id++ {
		nid := valence.NodeID(id)
		if s, p := ser.NodeFD(nid), par.NodeFD(nid); s != p {
			return fmt.Errorf("oracle: node %d: serial FD index %d, parallel %d (oracle-valence-node)", id, s, p)
		}
		if s, p := ser.Valence(nid), par.Valence(nid); s != p {
			return fmt.Errorf("oracle: node %d: serial valence %v, parallel %v (oracle-valence-node)", id, s, p)
		}
		if s, p := ser.NodeEncoding(nid), par.NodeEncoding(nid); !bytes.Equal(s, p) {
			return fmt.Errorf("oracle: node %d: serial encoding %q, parallel %q (oracle-valence-node)", id, s, p)
		}
		se, pe := ser.Edges(nid), par.Edges(nid)
		if len(se) != len(pe) {
			return fmt.Errorf("oracle: node %d: serial has %d edges, parallel %d (oracle-valence-node)", id, len(se), len(pe))
		}
		for k := range se {
			if se[k] != pe[k] {
				return fmt.Errorf("oracle: node %d edge %d: serial %+v, parallel %+v (oracle-valence-node)", id, k, se[k], pe[k])
			}
		}
	}

	sh, ph := ser.FindHooks(opts.maxHooks()), par.FindHooks(opts.maxHooks())
	if len(sh) != len(ph) {
		return fmt.Errorf("oracle: serial finds %d hooks, parallel %d (oracle-valence-hooks)", len(sh), len(ph))
	}
	for i := range sh {
		if sh[i] != ph[i] {
			return fmt.Errorf("oracle: hook %d: serial %v, parallel %v (oracle-valence-hooks)", i, sh[i], ph[i])
		}
		// Diff the Theorem-59 verdicts rather than requiring them to pass:
		// Lemma 58 only holds when tD crashes at most as many locations as
		// the hosted algorithm tolerates, and the differ accepts
		// hypothesis-violating configs on purpose (they exercise the engines
		// on graphs the lemma-bound tests never reach).  Whether a hook
		// verifies is a property of the tables, so the engines must agree.
		serr, perr := ser.VerifyHook(sh[i]), par.VerifyHook(ph[i])
		if (serr == nil) != (perr == nil) || (serr != nil && serr.Error() != perr.Error()) {
			return fmt.Errorf("oracle: hook %d: serial verification %v, parallel %v (oracle-valence-hooks)",
				i, serr, perr)
		}
	}
	return nil
}

func explore(cfg valence.Config) (*valence.Explorer, error) {
	e, err := valence.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.Explore(); err != nil {
		return nil, err
	}
	return e, nil
}
