// Command afdcheck checks the trace of a run artifact (as written by
// chaos run -out) against a named specification: any AFD of the
// Section-3.3 zoo, or the consensus problem of Section 9.1.  The location
// count is the artifact's.
//
// Examples:
//
//	afdcheck -list
//	afdcheck -fd FD-Ω run.json
//	afdcheck -problem consensus -f 1 run.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/afd"
	"repro/internal/consensus"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "afdcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		family   = flag.String("fd", "", "failure-detector family to check against")
		problem  = flag.String("problem", "", "problem to check against: consensus")
		f        = flag.Int("f", 1, "crash bound for -problem consensus")
		window   = flag.Int("window", 1, "stable-suffix window (outputs per live location)")
		prefix   = flag.Bool("prefix", false, "prefix mode: enforce only safety clauses (refutable on a prefix)")
		complete = flag.Bool("complete", true, "treat the trace as a complete run (termination enforced)")
		list     = flag.Bool("list", false, "list known detector families and exit")
		telFlags = telemetry.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	// Checking is an offline pass over a recorded trace — no simulation
	// planes to meter — so the flags here buy live pprof on big inputs and a
	// (mostly empty) trace file, keeping the flag surface uniform across the
	// cmd/* binaries.
	_, flush, err := telFlags.Init()
	if err != nil {
		return err
	}
	defer flush()

	if *list {
		for _, fam := range afd.Families(1) { // the names do not depend on n
			fmt.Println(fam)
		}
		return nil
	}
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: afdcheck [-fd FAMILY | -problem consensus] ARTIFACT.json")
	}
	file, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	defer file.Close()
	a, err := trace.ReadArtifact(file)
	if err != nil {
		return err
	}
	tr, n := a.Trace, a.N
	fmt.Printf("%d events read (%s, n=%d)\n", len(tr), a.Target, a.N)

	switch {
	case *family != "":
		d, err := afd.Lookup(*family, n)
		if err != nil {
			return err
		}
		w := afd.Window{MinOutputsPerLive: *window, MinStableOutputs: *window, Prefix: *prefix}
		if err := d.Check(trace.FD(tr, *family), n, w); err != nil {
			return fmt.Errorf("trace ∉ T(%s): %w", *family, err)
		}
		fmt.Printf("trace ∈ T(%s)\n", *family)
		return nil
	case *problem == "consensus":
		spec := consensus.Spec{N: n, F: *f}
		if err := spec.Check(consensus.ProjectIO(tr), *complete); err != nil {
			return fmt.Errorf("trace ∉ TP: %w", err)
		}
		fmt.Println("trace ∈ TP (f-crash-tolerant binary consensus)")
		return nil
	default:
		return fmt.Errorf("one of -fd or -problem is required (or -list)")
	}
}
