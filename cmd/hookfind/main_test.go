package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// hookfindOut runs the command with args and returns what it printed to
// stdout and to stderr.
func hookfindOut(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	out, errOut := redirect(t, &os.Stdout), redirect(t, &os.Stderr)
	err = run(args)
	return out(), errOut(), err
}

// redirect points *f at a pipe until the returned function restores it and
// returns what was written.
func redirect(t *testing.T, f **os.File) func() string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := *f
	*f = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		r.Close()
		printed <- string(b)
	}()
	return func() string {
		*f = old
		w.Close()
		return <-printed
	}
}

// TestRun pins hookfind's refusals, each made before anything is printed:
// a proposal outside {-1, 0, 1} and a location count past the consensus
// machines' 64-location bound (both panicked), and a crash at a location
// or round the tD does not have (the crash-free tree was explored under a
// line reporting one crash).  A crash inside the tD is explored and its
// hooks verified, and under -progress 0 nothing reaches stderr: no
// progress line is printed without a SIGINT, the final one included.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "2", "-rounds", "2", "-values", "3,0"}, "valence: value 3 at location 0 outside {-1, 0, 1}"},
		{[]string{"-n", "70", "-rounds", "1"}, "valence: n=70 outside 1..64"},
		{[]string{"-n", "2", "-rounds", "2", "-crash", "5:1"}, "crash location 5 outside 0..1"},
		{[]string{"-n", "2", "-rounds", "2", "-crash", "1:9"}, "crash round 9 outside 0..1"},
	} {
		out, errOut, err := hookfindOut(t, c.args...)
		if err == nil || err.Error() != c.want {
			t.Errorf("hookfind %s: error %v, want %q", strings.Join(c.args, " "), err, c.want)
		}
		if out+errOut != "" {
			t.Errorf("hookfind %s printed %q before refusing", strings.Join(c.args, " "), out+errOut)
		}
	}

	args := []string{"-algo", "s", "-n", "2", "-rounds", "4", "-crash", "1:1", "-values", "1,0", "-workers", "1", "-progress", "0"}
	out, errOut, err := hookfindOut(t, args...)
	if err != nil {
		t.Fatalf("hookfind %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	for _, want := range []string{"tD: 6 events (1 crashes)", "10 hooks verified"} {
		if !strings.Contains(out, want) {
			t.Errorf("hookfind %s printed\n%s\nwant it to contain %q", strings.Join(args, " "), out, want)
		}
	}
	if errOut != "" {
		t.Errorf("hookfind %s printed %q to stderr", strings.Join(args, " "), errOut)
	}
}
