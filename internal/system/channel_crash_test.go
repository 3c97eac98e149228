package system

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/ioa"
	"repro/internal/sched"
)

// burstSender is a minimal process automaton that emits k send(m, to)self
// actions and then goes quiet; it halts permanently on its own crash, like
// the Figure-1 process automata.
type burstSender struct {
	self, to ioa.Loc
	k        int
	sent     int
	crashed  bool
}

func (s *burstSender) Name() string { return fmt.Sprintf("burst[%v]", s.self) }
func (s *burstSender) Accepts(a ioa.Action) bool {
	return a.Kind == ioa.KindCrash && a.Loc == s.self
}
func (s *burstSender) Input(ioa.Action)     { s.crashed = true }
func (s *burstSender) NumTasks() int        { return 1 }
func (s *burstSender) TaskLabel(int) string { return "send" }
func (s *burstSender) Enabled(int) (ioa.Action, bool) {
	if s.crashed || s.sent >= s.k {
		return ioa.Action{}, false
	}
	return ioa.Send(s.self, s.to, "m"+strconv.Itoa(s.sent)), true
}
func (s *burstSender) Fire(ioa.Action) { s.sent++ }
func (s *burstSender) Clone() ioa.Automaton {
	c := *s
	return &c
}
func (s *burstSender) AppendEncode(dst []byte) []byte {
	return fmt.Appendf(dst, "B%v>%v:%d/%d:%v", s.self, s.to, s.sent, s.k, s.crashed)
}

// runSenderCrash composes sender → channel → crash(sender) and runs it with
// a gate that holds back the crash until all k sends are out and every
// delivery until the crash has fired.  The resulting trace exhibits the
// §4.3 guarantee directly: all messages in transit at crash time are still
// delivered, after the crash event.
func runSenderCrash(t *testing.T, k int, run func(*ioa.System, sched.Options) sched.Result) []ioa.Action {
	t.Helper()
	sender := &burstSender{self: 0, to: 1, k: k}
	sys, err := ioa.NewSystem(sender, NewChannel(0, 1), NewCrash(CrashOf(0)))
	if err != nil {
		t.Fatal(err)
	}
	crashed := false
	gate := func(_ int, _ ioa.TaskRef, act ioa.Action) bool {
		switch act.Kind {
		case ioa.KindCrash:
			if sender.sent < k {
				return false // crash only after the full burst is in transit
			}
			crashed = true
			return true
		case ioa.KindReceive:
			return crashed // deliveries strictly after the crash
		}
		return true
	}
	res := run(sys, sched.Options{MaxSteps: 200, Gate: gate})
	if res.Reason != sched.StopQuiescent {
		t.Fatalf("reason = %s, want quiescent", res.Reason)
	}
	return sys.Trace()
}

// checkPreCrashDelivery asserts the §4.3 crash semantics on the trace: the
// sender's crash occurs, and every one of the k messages sent before it is
// delivered afterwards, in FIFO order.
func checkPreCrashDelivery(t *testing.T, tr []ioa.Action, k int) {
	t.Helper()
	crashAt := -1
	var delivered []string
	for i, a := range tr {
		switch a.Kind {
		case ioa.KindCrash:
			crashAt = i
		case ioa.KindReceive:
			if crashAt < 0 {
				t.Fatalf("delivery %v before the crash; gate broken", a)
			}
			delivered = append(delivered, a.Payload)
		}
	}
	if crashAt < 0 {
		t.Fatal("crash never fired")
	}
	if len(delivered) != k {
		t.Fatalf("delivered %d of %d messages sent before the crash", len(delivered), k)
	}
	for i, m := range delivered {
		if want := "m" + strconv.Itoa(i); m != want {
			t.Fatalf("delivery %d = %q, want %q (FIFO)", i, m, want)
		}
	}
}

func TestChannelDeliversPreCrashMessagesRoundRobin(t *testing.T) {
	tr := runSenderCrash(t, 3, sched.RoundRobin)
	checkPreCrashDelivery(t, tr, 3)
}

func TestChannelDeliversPreCrashMessagesRandom(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr := runSenderCrash(t, 3, func(sys *ioa.System, opts sched.Options) sched.Result {
			return sched.Random(sys, seed, opts)
		})
		checkPreCrashDelivery(t, tr, 3)
	}
}

func TestTrackedChannelStampsFollowSendOrder(t *testing.T) {
	clock := NewSendClock()
	ab := NewTrackedChannel(0, 1, clock)
	ba := NewTrackedChannel(1, 0, clock)
	ab.Input(ioa.Send(0, 1, "x"))
	ba.Input(ioa.Send(1, 0, "y"))
	ab.Input(ioa.Send(0, 1, "z"))
	if s, ok := ab.HeadStamp(); !ok || s != 1 {
		t.Fatalf("ab head stamp = %d,%v want 1", s, ok)
	}
	if s, ok := ba.HeadStamp(); !ok || s != 2 {
		t.Fatalf("ba head stamp = %d,%v want 2", s, ok)
	}
	act, ok := ab.Enabled(0)
	if !ok {
		t.Fatal("ab should deliver")
	}
	ab.Fire(act)
	if s, _ := ab.HeadStamp(); s != 3 {
		t.Fatalf("ab head stamp after fire = %d, want 3", s)
	}
	if _, ok := NewTrackedChannel(2, 3, clock).HeadStamp(); ok {
		t.Fatal("empty tracked channel reported a head stamp")
	}
}

func TestPlanSubsets(t *testing.T) {
	plans := PlanSubsets(3, 1, 0)
	if len(plans) != 4 { // ∅, {0}, {1}, {2}
		t.Fatalf("PlanSubsets(3,1) = %d plans, want 4", len(plans))
	}
	plans = PlanSubsets(3, 2, 0)
	if len(plans) != 7 { // + {0,1}, {0,2}, {1,2}
		t.Fatalf("PlanSubsets(3,2) = %d plans, want 7", len(plans))
	}
	// maxT clamped to n; every location distinct within a plan.
	plans = PlanSubsets(2, 5, 0)
	if len(plans) != 4 {
		t.Fatalf("PlanSubsets(2,5) = %d plans, want 4", len(plans))
	}
	for _, p := range plans {
		if p.MaxFaulty() != len(p.Crash) {
			t.Fatalf("plan %v repeats a location", p)
		}
	}
	// A limit stops the enumeration: the first plans of a 2^40 grid.
	plans = PlanSubsets(40, 39, 3)
	if len(plans) != 3 || len(plans[0].Crash) != 0 || plans[1].Crash[0] != 0 || plans[2].Crash[0] != 1 {
		t.Fatalf("PlanSubsets(40,39,3) = %v, want ∅, {0}, {1}", plans)
	}
}

func TestFaultPlanWithoutCrash(t *testing.T) {
	p := CrashOf(0, 1, 2)
	q := p.WithoutCrash(1)
	if len(q.Crash) != 2 || q.Crash[0] != 0 || q.Crash[1] != 2 {
		t.Fatalf("WithoutCrash(1) = %v", q)
	}
	if got := p.WithoutCrash(7); len(got.Crash) != 3 {
		t.Fatalf("out-of-range removal changed the plan: %v", got)
	}
	if p.String() != "crash{0,1,2}" {
		t.Fatalf("String = %q", p.String())
	}
}
