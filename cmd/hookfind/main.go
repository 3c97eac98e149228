// Command hookfind builds the tagged execution tree RtD of Section 8 for
// the Section-9.3 consensus system, computes node valences, searches for
// hooks (Section 9.6.1), and verifies the Theorem-59 properties of every
// hook found.
//
// Exploration runs on the parallel engine (see -workers) and reports
// progress — nodes, edges, nodes/sec — every -progress nodes and on SIGINT;
// a second SIGINT aborts the exploration cleanly via the Progress hook.
//
// Example:
//
//	hookfind -n 3 -rounds 3 -crash 2:1 -values -1,0,1
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/afd"
	"repro/internal/ioa"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/valence"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hookfind:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hookfind", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 2, "number of locations")
		algo     = fs.String("algo", "ct", "hosted consensus algorithm: ct (Ω, rotating coordinator) or s (P, flooding)")
		rounds   = fs.Int("rounds", 6, "detector output sweeps in tD")
		crash    = fs.String("crash", "", "crashes inside tD as loc:round pairs, comma separated")
		values   = fs.String("values", "", "environment proposals per location (-1 = free); empty = all free")
		maxNodes = fs.Int("maxnodes", 2_000_000, "node cap (exploration fails past it)")
		maxHooks = fs.Int("maxhooks", 10, "hooks to print and verify (0 = all found)")
		workers  = fs.Int("workers", 0, "exploration workers (0 = GOMAXPROCS)")
		por      = fs.Bool("por", false, "dynamic partial-order reduction: prune provably equivalent interleavings (verdicts and hooks are preserved)")
		progress = fs.Int("progress", 100_000, "print a progress line every this many nodes (0 = only on SIGINT)")
		dot      = fs.String("dot", "", "write the explored graph as Graphviz DOT to this file")
		telFlags = telemetry.RegisterFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	tel, flush, err := telFlags.Init()
	if err != nil {
		return err
	}
	defer flush()

	crashAt := make(map[ioa.Loc]int)
	if *crash != "" {
		for _, part := range strings.Split(*crash, ",") {
			lr := strings.SplitN(part, ":", 2)
			if len(lr) != 2 {
				return fmt.Errorf("bad crash spec %q (want loc:round)", part)
			}
			l, err1 := strconv.Atoi(lr[0])
			r, err2 := strconv.Atoi(lr[1])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("bad crash spec %q", part)
			}
			if l < 0 || l >= *n {
				return fmt.Errorf("crash location %d outside 0..%d", l, *n-1)
			}
			if r < 0 || r >= *rounds {
				return fmt.Errorf("crash round %d outside 0..%d", r, *rounds-1)
			}
			crashAt[ioa.Loc(l)] = r
		}
	}
	var vals []int
	if *values != "" {
		for _, part := range strings.Split(*values, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad value %q", part)
			}
			vals = append(vals, v)
		}
	}

	var tD trace.T
	var fd afd.Detector
	switch *algo {
	case "ct":
		tD, fd = valence.OmegaTD(*n, *rounds, crashAt), afd.Omega{}
	case "s":
		tD, fd = valence.PerfectTD(*n, *rounds, crashAt), afd.Standard(*n)[afd.FamilyP]
	default:
		return fmt.Errorf("unknown algo %q", *algo)
	}

	// SIGINT once = print progress at the next hook call; twice = abort.
	var sigints atomic.Int64
	sigCh := make(chan os.Signal, 4)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		for range sigCh {
			if sigints.Add(1) >= 2 {
				fmt.Fprintln(os.Stderr, "hookfind: aborting at next progress checkpoint")
			}
		}
	}()
	defer func() {
		signal.Stop(sigCh)
		close(sigCh) // ends the goroutine above; Stop delivers no more signals
	}()

	every := *progress
	if every <= 0 {
		// Progress only on SIGINT: still poll at a fine grain so the signal
		// is noticed promptly, but stay quiet otherwise.
		every = 10_000
	}
	start := time.Now()
	var lastPrinted int64
	e, err := valence.New(valence.Config{
		N: *n, Family: fd.Family(), Algo: *algo, TD: tD, Values: vals,
		MaxNodes: *maxNodes, Workers: *workers, ProgressEvery: every,
		Reduce: *por, Telemetry: tel,
		Progress: func(p valence.Progress) bool {
			sig := sigints.Load()
			if *progress > 0 || sig > 0 {
				el := time.Since(start)
				fmt.Fprintf(os.Stderr, "progress: %d nodes, %d edges, %.0f nodes/sec\n",
					p.Nodes, p.Edges, float64(p.Nodes)/el.Seconds())
				lastPrinted = p.Nodes
			}
			return sig < 2
		},
	})
	if err != nil {
		return err
	}
	// Checked once valence.New has vetted n: the checkers assume n ≥ 0.
	if err := fd.Check(tD, *n, afd.DefaultWindow()); err != nil {
		return fmt.Errorf("constructed tD ∉ T(%s): %w", fd.Family(), err)
	}
	fmt.Printf("tD: %d events (%d crashes)\n", len(tD), trace.Faulty(tD).Len())
	if err := e.Explore(); err != nil {
		var cap *valence.ErrStateSpaceCap
		switch {
		case errors.Is(err, valence.ErrCanceled):
			return fmt.Errorf("exploration aborted by SIGINT after %d nodes", lastPrinted)
		case errors.As(err, &cap):
			return fmt.Errorf("state space exceeds -maxnodes %d (%d nodes created); re-run with a larger cap",
				cap.Cap, cap.Nodes)
		}
		return err
	}
	st := e.Stats()
	fmt.Printf("graph: %d nodes, %d edges (%d FD, %d decide) in %v\n",
		st.Nodes, st.Edges, st.FDEdges, st.DecideCut, time.Since(start).Round(time.Millisecond))
	fmt.Printf("valences: %d bivalent, %d 0-valent, %d 1-valent, %d unknown\n",
		st.Bivalent, st.ZeroVal, st.OneVal, st.Unknown)
	if *por {
		fmt.Printf("reduction: %d reduced nodes, %d pruned steps, %d sleep hits, %d rounds, %d forced full, %d poisoned\n",
			st.ReducedNodes, st.PrunedSteps, st.SleepHits, st.ReduceRounds,
			st.ForcedCycle+st.ForcedBivalent, st.Poisoned)
	}
	fmt.Printf("root: %v\n", e.Valence(e.Root()))

	if err := e.CheckLemma52(); err != nil {
		return err
	}
	if err := e.CheckProposition50(); err != nil {
		return err
	}
	fmt.Println("Lemma 52 and Proposition 50 verified on every node")

	found := e.FindHooks(*maxHooks)
	if len(found) == 0 {
		fmt.Println("no hooks found")
		return nil
	}
	for _, h := range found {
		if err := e.VerifyHook(h); err != nil {
			return err
		}
		fmt.Printf("VERIFIED %v\n", h)
	}
	fmt.Printf("%d hooks verified: action tags non-⊥, single critical location, critical location live (Theorem 59)\n", len(found))
	hs := e.HookStats(found)
	fmt.Printf("hook edges by kind: %v; FD edge involved in %d hooks; critical locations: %v\n",
		hs.ByLabelKind, hs.FDInvolved, hs.ByCritical)

	length, cyclic := e.BivalencePath()
	fmt.Printf("bivalence-preserving adversary path: %d steps, cyclic=%t\n", length, cyclic)

	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		if err := e.WriteDOT(f, 0); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("graph written to %s\n", *dot)
	}
	return nil
}
