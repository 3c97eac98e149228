// Package valence implements Sections 8 and 9.4–9.6 of "Asynchronous
// Failure Detectors": the tagged execution tree RtD of a system using an
// AFD, the valence analysis of its nodes (bivalent / univalent,
// Propositions 47–51, Lemma 52), and the hook construction (Lemmas 53–58,
// Theorem 59, Figures 2–3) that pinpoints how AFD information circumvents
// the impossibility of asynchronous consensus.
//
// The paper's RtD is an infinite tree over task labels; here it is explored
// as a finite graph by memoizing nodes on (system state encoding,
// FD-sequence index) — two tree nodes with equal config and FD tags have
// identical subtrees (Lemma 33), so the quotient preserves exactly the
// properties the paper proves.  Edges with ⊥ action tags are self-loops in
// the quotient and are omitted; Lemma 56 shows hooks never involve them.
//
// The system composed into the tree is the paper's S (Section 9.3) *without*
// the crash and failure-detector automata: both crash events and detector
// outputs are injected by the FD edge from the fixed admissible sequence tD
// over Iˆ ∪ OD, exactly as Section 8.2 tags the tree.
//
// Explore runs one engine at every worker count (Config.Workers sets how
// many workers it uses, nothing else): workers expand the frontier against a
// sharded memo index keyed by a collision-checked 64-bit state hash, and a
// deterministic renumbering pass reassigns final NodeIDs in serial-BFS
// order, so Stats, valences, DOT output, and hook reports never depend on
// scheduling.  ExploreReference builds the same tables with a separate
// single-threaded explorer, the reference the engine is diffed against.
// Node and edge storage is struct-of-arrays; each distinct state encoding is
// interned once.
package valence

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Label names one outgoing edge class of every tree node: the FD edge or one
// task of the composition (Proc_i, Chan_{i,j}, Env_{i,x}).
type Label int

// LabelFD is the failure-detector edge; other labels index composition tasks.
const LabelFD Label = -1

// Valence classifies a node per Section 9.5.
type Valence uint8

// Valence values.  A node is v-valent when only decision value v is
// reachable, bivalent when both are, and unknown when no decision is
// reachable in the explored graph (which the paper's Proposition 48 rules
// out for fair branches; it indicates the supplied tD was too weak).
const (
	ValUnknown Valence = iota
	ValZero
	ValOne
	ValBivalent
)

// String implements fmt.Stringer.
func (v Valence) String() string {
	switch v {
	case ValZero:
		return "0-valent"
	case ValOne:
		return "1-valent"
	case ValBivalent:
		return "bivalent"
	default:
		return "unknown"
	}
}

const (
	maskZero = 1 << iota
	maskOne
)

func maskToValence(m uint8) Valence {
	switch m {
	case maskZero:
		return ValZero
	case maskOne:
		return ValOne
	case maskZero | maskOne:
		return ValBivalent
	default:
		return ValUnknown
	}
}

// NodeID indexes a node of the explored graph.
type NodeID int

// Edge is one outgoing edge of a node: the edge's label, its action tag, and
// the target node.
type Edge struct {
	Label Label
	Act   ioa.Action
	To    NodeID
}

// ErrStateSpaceCap reports that exploration created more nodes than
// Config.MaxNodes allows.  Nodes carries the partial count at the moment the
// cap was hit, so callers can distinguish "state space genuinely larger than
// the budget" from other failures and re-run with a raised cap.
type ErrStateSpaceCap struct {
	Cap   int // the configured cap
	Nodes int // nodes created when the cap was hit
}

// Error implements error.
func (e *ErrStateSpaceCap) Error() string {
	return fmt.Sprintf("valence: state space exceeds cap %d (%d nodes created)", e.Cap, e.Nodes)
}

// ErrCanceled is returned by Explore when the Progress hook requests an
// abort by returning false.
var ErrCanceled = errors.New("valence: exploration canceled by Progress hook")

// Progress is a snapshot of a running exploration, delivered to the
// Config.Progress hook.
type Progress struct {
	Nodes int64 // nodes created so far
	Edges int64 // edges created so far
	Done  bool  // set on the final report, after expansion completed
}

// Config configures an exploration.
type Config struct {
	// N is the number of locations.
	N int
	// Family is the failure-detector family whose outputs appear in TD.
	Family string
	// Algo selects the consensus algorithm hosted in the tree: "ct" (the
	// rotating-coordinator algorithm; default) or "s" (the CT96 S-based
	// flooding algorithm, which has no round churn and therefore a much
	// smaller reachable graph — preferable for n ≥ 3).
	Algo string
	// TD is the fixed admissible FD sequence over Iˆ ∪ OD driving the FD
	// edges.  Its crash events are the run's fault pattern.
	TD trace.T
	// Values fixes environment proposals per location; -1 leaves that
	// location's environment free (both propose tasks enabled, Algorithm
	// 4).  nil frees every location.  Root bivalence needs at least one
	// free location whose proposal can swing the decision.
	Values []int
	// MaxNodes caps the exploration (default 200_000).  The cap is checked
	// as nodes are created; exceeding it fails Explore with
	// *ErrStateSpaceCap (valence computation needs the full reachable
	// graph).
	MaxNodes int
	// Workers is the number of exploration workers.  0 (the default) uses
	// runtime.GOMAXPROCS(0).  Explored graphs are byte-identical at every
	// worker count.
	Workers int
	// Progress, when non-nil, is called approximately every ProgressEvery
	// created nodes during expansion, and once more (Done=true) when
	// expansion completes.  Returning false cancels the exploration:
	// Explore returns ErrCanceled.  Calls are serialized; the hook never
	// runs concurrently with itself.
	Progress func(Progress) bool
	// ProgressEvery is the node interval between Progress calls
	// (default 50_000).
	ProgressEvery int
	// Reduce enables dynamic partial-order reduction: at each node the
	// explorer expands only an ample subset of the enabled steps —
	// a single location's cluster, chosen by the static independence
	// relation derived from the routing index (ioa.Sites) — with a
	// visibility/cycle/bivalence proviso so crash events, FD outputs, and
	// decision actions are never pruned and every surviving node's valence
	// and the hook set are identical to the unreduced graph's (the oracle's
	// DiffReduction mode re-verifies this).  Default off; opt-in.  The
	// reduced graph is still byte-identical at every worker count.
	// ExploreReference rejects it.
	Reduce bool
	// Telemetry, when non-nil, receives exploration metrics — nodes/edges
	// created (CValenceNodes/CValenceEdges), expansions, live and peak
	// frontier width, worker count and busy time, fixpoint rounds — and
	// valence-category trace spans (per-worker expansions, fixpoint rounds).
	// Purely observational: explored graphs are identical with or without.
	Telemetry *telemetry.Registry
}

func (c Config) maxNodes() int {
	if c.MaxNodes <= 0 {
		return 200_000
	}
	return c.MaxNodes
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) progressEvery() int {
	if c.ProgressEvery > 0 {
		return c.ProgressEvery
	}
	return 50_000
}

// Explorer holds the explored quotient of RtD.
//
// After Explore the graph lives in struct-of-arrays form: per-node columns
// (fdIdx, mask, interned encoding references) plus one shared edge arena in
// CSR layout (estart[id] .. estart[id+1] index the node's out-edges, in FD-
// edge-first, ascending-task-label order).  NodeIDs are serial-BFS order
// regardless of how many workers explored.
type Explorer struct {
	cfg     Config
	labels  []string // label names for reporting; index by task order
	tasks   []ioa.TaskRef
	rootSys *ioa.System // pristine root state; Explore starts from a clone
	done    bool

	// Per-node columns.
	fdIdx []int32
	mask  []uint8
	// Interned state encodings, one slice header per node: each distinct
	// encoding is stored once, where it was interned, so the engine's
	// renumbering pass moves no encoding bytes.
	encs [][]byte
	// CSR edge arena.
	estart []int64
	edges  []Edge

	// Reduction state (nil/zero unless Config.Reduce).
	red        *reduceInfo
	fullbit    []bool // per node: fully expanded (vs ample subset)
	redStats   reduceCounters
	propagated bool // analysis rounds already computed final masks
}

// reduceCounters accumulates reduction statistics during exploration.
type reduceCounters struct {
	reduced, pruned, sleep, poisoned int64
	rounds, forcedCycle, forcedBiv   int
}

// New builds the root system (consensus algorithm + channels + environment,
// per Section 9.3) and prepares an explorer.  It refuses an N outside
// 1..system.MaxLocs and a Values slice that is not nil, not N long, or
// holds an entry outside {−1, 0, 1}.
func New(cfg Config) (*Explorer, error) {
	if cfg.N < 1 || cfg.N > system.MaxLocs {
		return nil, fmt.Errorf("valence: n=%d outside 1..%d", cfg.N, system.MaxLocs)
	}
	if cfg.Values != nil && len(cfg.Values) != cfg.N {
		return nil, fmt.Errorf("valence: %d values for %d locations", len(cfg.Values), cfg.N)
	}
	for i, v := range cfg.Values {
		if v < -1 || v > 1 {
			return nil, fmt.Errorf("valence: value %d at location %d outside {-1, 0, 1}", v, i)
		}
	}
	var procs []ioa.Automaton
	var err error
	switch cfg.Algo {
	case "", "ct":
		procs, err = consensus.Procs(cfg.N, cfg.Family)
	case "s":
		procs, err = consensus.SProcs(cfg.N, cfg.Family)
	default:
		return nil, fmt.Errorf("valence: unknown algorithm %q", cfg.Algo)
	}
	if err != nil {
		return nil, err
	}
	autos := procs
	autos = append(autos, system.Channels(cfg.N)...)
	for i := 0; i < cfg.N; i++ {
		if cfg.Values == nil || cfg.Values[i] < 0 {
			autos = append(autos, system.NewConsensusEnv(ioa.Loc(i)))
		} else {
			autos = append(autos, system.NewConsensusEnvFixed(ioa.Loc(i), cfg.Values[i]))
		}
	}
	sys, err := ioa.NewSystem(autos...)
	if err != nil {
		return nil, err
	}
	e := &Explorer{cfg: cfg, rootSys: sys}
	for _, tr := range sys.Tasks() {
		e.tasks = append(e.tasks, tr)
		e.labels = append(e.labels, sys.TaskLabel(tr))
	}
	if cfg.Reduce {
		red, err := buildReduceInfo(sys, cfg)
		if err != nil {
			return nil, err
		}
		e.red = red
	}
	return e, nil
}

// LabelName renders a label.
func (e *Explorer) LabelName(l Label) string {
	if l == LabelFD {
		return "FD"
	}
	return e.labels[l]
}

// NumNodes returns the number of distinct explored nodes.
func (e *Explorer) NumNodes() int { return len(e.fdIdx) }

// NumEdges returns the number of explored edges.
func (e *Explorer) NumEdges() int { return len(e.edges) }

// Root returns the root node's ID.
func (e *Explorer) Root() NodeID { return 0 }

// Valence returns the valence of a node (after Explore).
func (e *Explorer) Valence(id NodeID) Valence { return maskToValence(e.mask[id]) }

// Edges returns node id's out-edges in deterministic order: the FD edge
// first (if enabled), then task edges by ascending label.  The returned
// slice aliases the explorer's edge arena; callers must not modify it.
func (e *Explorer) Edges(id NodeID) []Edge {
	return e.edges[e.estart[id]:e.estart[id+1]]
}

// NodeFD returns the FD-sequence index tag of node id.
func (e *Explorer) NodeFD(id NodeID) int { return int(e.fdIdx[id]) }

// NodeEncoding returns node id's interned state encoding (the config tag).
// The slice aliases the explorer's storage; callers must not modify it.
// Exposed for the oracle layer's node-by-node differ.
func (e *Explorer) NodeEncoding(id NodeID) []byte { return e.encs[id] }

// stateHash fingerprints a node key (state encoding, FD index).  Collisions
// are legal — the memo index confirms every hit against the interned
// encoding — but the final avalanche keeps shard selection uniform.
func stateHash(enc []byte, fd int) uint64 {
	h := ioa.HashBytes(ioa.HashSeed, enc)
	h ^= uint64(fd)*0x9e3779b97f4a7c15 + 0x1000193
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// Explore expands the full reachable graph and computes valences.  It hits
// every reachable node exactly once; re-exploring requires a fresh Explorer.
func (e *Explorer) Explore() error {
	if e.done {
		return errors.New("valence: Explore called twice")
	}
	// Phase 1: frontier expansion with memoization.
	w := e.cfg.workers()
	e.cfg.Telemetry.SetGauge(telemetry.GValenceWorkers, int64(w))
	if err := e.exploreParallel(w); err != nil {
		return err
	}
	e.done = true
	// Phase 2: forward and backward fixpoints of reachable decision values
	// (under reduction the analysis rounds already computed them).
	if !e.propagated {
		e.propagate()
	}
	e.cfg.Telemetry.SetGauge(telemetry.GValenceFrontier, 0)
	return nil
}

// reverse is the transposed edge relation in CSR form, with the decide bit
// of each edge precomputed; built once after expansion, used by the valence
// fixpoints, and released afterwards.
type reverse struct {
	start []int64
	pred  []NodeID
	bit   []uint8 // decide bit of the edge pred -> node
	ebit  []uint8 // decide bit per *forward* edge, aligned with e.edges
}

func (e *Explorer) buildReverse() *reverse {
	n := len(e.fdIdx)
	r := &reverse{
		start: make([]int64, n+1),
		pred:  make([]NodeID, len(e.edges)),
		bit:   make([]uint8, len(e.edges)),
		ebit:  make([]uint8, len(e.edges)),
	}
	for k := range e.edges {
		r.start[e.edges[k].To+1]++
		if b, ok := decideBit(e.edges[k].Act); ok {
			r.ebit[k] = b
		}
	}
	for i := 0; i < n; i++ {
		r.start[i+1] += r.start[i]
	}
	pos := make([]int64, n)
	copy(pos, r.start[:n])
	for id := 0; id < n; id++ {
		for k := e.estart[id]; k < e.estart[id+1]; k++ {
			to := e.edges[k].To
			r.pred[pos[to]] = NodeID(id)
			r.bit[pos[to]] = r.ebit[k]
			pos[to]++
		}
	}
	return r
}

// propagate computes each node's valence mask.  A node's valence is defined
// over the decision values occurring in exe(N) *or any descendant's
// execution* (Section 9.5), so the mask is the union of
//
//	past(N)   – decision events on walks from the root to N (all walks
//	            agree: whether location i's decide has fired is a function
//	            of the memoized state, and agreement fixes the value), and
//	future(N) – decision events reachable from N,
//
// each a monotone fixpoint over the uint8 mask lattice.  The fixpoints are
// unique, so the engine's round-based solvers (parallel.go) and the
// reference's worklists (reference.go) produce identical masks.
func (e *Explorer) propagate() {
	r := e.buildReverse()
	w := e.cfg.workers()
	e.propagateFutureParallel(r, w)
	e.propagatePastParallel(r, w)
}

func decideBit(a ioa.Action) (uint8, bool) {
	if a.Kind != ioa.KindEnvOut || a.Name != system.ActNameDecide {
		return 0, false
	}
	switch a.Payload {
	case "0":
		return maskZero, true
	case "1":
		return maskOne, true
	default:
		return 0, false
	}
}

// Stats summarizes an explored graph.
type Stats struct {
	Nodes     int
	Edges     int
	Bivalent  int
	ZeroVal   int
	OneVal    int
	Unknown   int
	FDEdges   int
	MaxFDIdx  int
	DecideCut int // edges carrying decide actions

	// Reduction counters, all zero unless Config.Reduce.
	ReducedNodes   int // nodes expanded with a proper ample subset
	PrunedSteps    int // enabled steps not expanded, summed over reduced nodes
	SleepHits      int // pruned steps inherited from the parent's sleep set
	ReduceRounds   int // proviso analysis rounds run
	ForcedCycle    int // reduced nodes forced full by the cycle proviso
	ForcedBivalent int // reduced nodes forced full by bivalent completeness
	Poisoned       int // expansions falling back to full on a site-claim mismatch
}

// Stats computes summary statistics (after Explore).
func (e *Explorer) Stats() Stats {
	var s Stats
	s.Nodes = len(e.fdIdx)
	s.Edges = len(e.edges)
	for i := 0; i < s.Nodes; i++ {
		if fd := int(e.fdIdx[i]); fd > s.MaxFDIdx {
			s.MaxFDIdx = fd
		}
		switch maskToValence(e.mask[i]) {
		case ValBivalent:
			s.Bivalent++
		case ValZero:
			s.ZeroVal++
		case ValOne:
			s.OneVal++
		default:
			s.Unknown++
		}
	}
	for k := range e.edges {
		if e.edges[k].Label == LabelFD {
			s.FDEdges++
		}
		if _, ok := decideBit(e.edges[k].Act); ok {
			s.DecideCut++
		}
	}
	s.ReducedNodes = int(e.redStats.reduced)
	s.PrunedSteps = int(e.redStats.pruned)
	s.SleepHits = int(e.redStats.sleep)
	s.Poisoned = int(e.redStats.poisoned)
	s.ReduceRounds = e.redStats.rounds
	s.ForcedCycle = e.redStats.forcedCycle
	s.ForcedBivalent = e.redStats.forcedBiv
	return s
}

// FullyExpanded reports whether node id's out-edges cover every enabled step
// (always true without Config.Reduce; under reduction, false exactly for the
// nodes expanded with a proper ample subset).
func (e *Explorer) FullyExpanded(id NodeID) bool {
	if e.fullbit == nil {
		return true
	}
	return e.fullbit[id]
}

// TaskOwner returns the index (within the composition) of the automaton
// owning task label l, or -1 for LabelFD.  Exposed for the oracle layer's
// reduction checker, which replays paths through a fresh system.
func (e *Explorer) TaskOwner(l Label) int {
	if l == LabelFD {
		return -1
	}
	return e.tasks[l].Auto
}

// NewRootSystem returns a fresh clone of the composition's initial state.
// Exposed for callers that re-derive footprints or replay explored paths
// (the oracle's reduction checker, the commutation property test).
func (e *Explorer) NewRootSystem() *ioa.System { return e.rootSys.CloneBare() }
