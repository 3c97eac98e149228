package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// chaosOut runs the command with args and returns what it printed.
func chaosOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	return <-printed, runErr
}

// TestCommand drives the command the way the CI jobs do: record the
// qos-provenance artifact, check it and explain its suspicion, refuse to
// judge it as consensus (it records no proposals), reject a forged copy,
// and run the sweep grids with their controls — the slanderer's
// strong-accuracy failures are specification failures, never divergences,
// and a 2^40-plan grid is refused.  want is looked for in what the command
// printed and, when it fails, in its error.
func TestCommand(t *testing.T) {
	art := filepath.Join(t.TempDir(), "qos-run.json")
	steps := []struct {
		args    []string
		wantErr bool
		want    string
	}{
		{[]string{"run", "-target", "gossip:FD-◇Q>FD-◇P", "-n", "4", "-crash", "3", "-sched", "rr", "-out", art},
			false, "specification satisfied"},
		{[]string{"check", "-fd", "FD-◇P", art}, false, "trace ∈ T(FD-◇P)"},
		{[]string{"check", "-problem", "consensus", art}, true, "the gossip:FD-◇Q>FD-◇P artifact records no propose event"},
		{[]string{"explain", "-why", "0:3", art}, false, "verification OK: 13/13 message edges"},
		{[]string{"replay", art}, false, "replayed 4800 steps deterministically"},
		{[]string{"sweep", "-seeds", "2", "-plans", "3", "-steps", "1200"},
			false, "54 runs, 0 failures (0 spec, 0 divergences)"},
		{[]string{"sweep", "-seeds", "2", "-plans", "3", "-steps", "1200", "-targets", "detector:slanderer"},
			true, "18 runs, 17 failures (17 spec, 0 divergences)"},
		{[]string{"sweep", "-n", "40"}, true, "fault plans for detector:FD-Ω; lower -t"},
	}
	for _, s := range steps {
		out, err := chaosOut(t, s.args...)
		if (err != nil) != s.wantErr {
			t.Fatalf("chaos %s: error %v, want error %t\n%s", strings.Join(s.args, " "), err, s.wantErr, out)
		}
		if err != nil {
			out += err.Error()
		}
		if !strings.Contains(out, s.want) {
			t.Errorf("chaos %s printed\n%s\nwant it to contain %q", strings.Join(s.args, " "), out, s.want)
		}
	}

	f, err := os.Open(art)
	if err != nil {
		t.Fatal(err)
	}
	a, err := trace.ReadArtifact(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Trace {
		if a.Trace[i].Kind == ioa.KindReceive {
			a.Trace[i].Payload += "-forged"
			break
		}
	}
	forged := filepath.Join(filepath.Dir(art), "qos-forged.json")
	if err := trace.WriteArtifactFile(forged, a); err != nil {
		t.Fatal(err)
	}
	if _, err := chaosOut(t, "explain", "-why", "0:3", forged); err == nil || !strings.Contains(err.Error(), "not enabled") {
		t.Errorf("explain on a forged artifact: error %v, want the rebuild to reject it", err)
	}
}

// TestErrorLinePrefixedOnce pins the line main prints for a refused
// command: one "chaos: " prefix whether internal/chaos made the error (its
// errors already carry the prefix) or the command did, and nothing printed
// before it — a grid that cannot pass is refused before it runs.
func TestErrorLinePrefixedOnce(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"survey", "-short", "-n", "0"}, "chaos: n=0 outside 1..64"},
		{[]string{"survey", "-short", "-n", "2"}, "chaos: positive control cannot run at n=2: the survey has no crash plan below n=3"},
		{[]string{"explain", "-why", "0-3"}, `chaos: -why wants observer:subject, got "0-3"`},
	} {
		out, err := chaosOut(t, c.args...)
		if err == nil {
			t.Fatalf("chaos %s succeeded, want an error", strings.Join(c.args, " "))
		}
		if out != "" {
			t.Errorf("chaos %s printed %q before refusing", strings.Join(c.args, " "), out)
		}
		if got := errorLine(err); got != c.want {
			t.Errorf("chaos %s prints %q, want %q", strings.Join(c.args, " "), got, c.want)
		}
	}
}
