package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ioa"
)

func link(from, to int) Link { return Link{From: ioa.Loc(from), To: ioa.Loc(to)} }

// collectDelivers starts tr with a callback counting delivers per link.
func collectDelivers(t *testing.T, tr Transport) (*sync.Mutex, map[Link]int) {
	t.Helper()
	var mu sync.Mutex
	got := map[Link]int{}
	if err := tr.Start(func(l Link) {
		mu.Lock()
		got[l]++
		mu.Unlock()
	}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return &mu, got
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

func testTransportOnePerSend(t *testing.T, tr Transport) {
	mu, got := collectDelivers(t, tr)
	const n = 50
	for i := 0; i < n; i++ {
		tr.Send(link(0, 1))
		tr.Send(link(1, 2))
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got[link(0, 1)] == n && got[link(1, 2)] == n
	})
	tr.Stop()
	mu.Lock()
	defer mu.Unlock()
	if got[link(0, 1)] != n || got[link(1, 2)] != n {
		t.Fatalf("delivers = %v, want %d per link", got, n)
	}
}

func testTransportPartition(t *testing.T, tr Transport) {
	mu, got := collectDelivers(t, tr)
	// Isolate location 0: the 0>1 signal must be held, 1>2 must pass.
	tr.Partition(0b001)
	tr.Send(link(0, 1))
	tr.Send(link(1, 2))
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got[link(1, 2)] == 1
	})
	// Generous settle window: the held signal must NOT arrive.
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	held := got[link(0, 1)]
	mu.Unlock()
	if held != 0 {
		t.Fatalf("cross-partition signal delivered %d times while partitioned", held)
	}
	tr.Partition(0) // heal: held signal released
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got[link(0, 1)] == 1
	})
	tr.Stop()
}

func testTransportNoDeliverAfterStop(t *testing.T, tr Transport) {
	var after atomic.Bool
	var stopped atomic.Bool
	if err := tr.Start(func(Link) {
		if stopped.Load() {
			after.Store(true)
		}
	}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for i := 0; i < 100; i++ {
		tr.Send(link(0, 1))
	}
	tr.Stop()
	stopped.Store(true)
	time.Sleep(10 * time.Millisecond)
	if after.Load() {
		t.Fatalf("deliver callback invoked after Stop returned")
	}
	tr.Stop() // idempotent
}

func TestChanTransport(t *testing.T) {
	t.Run("one-deliver-per-send", func(t *testing.T) {
		testTransportOnePerSend(t, NewChanTransport(ChanOptions{Seed: 1}))
	})
	t.Run("partition-hold-release", func(t *testing.T) {
		testTransportPartition(t, NewChanTransport(ChanOptions{Seed: 2}))
	})
	t.Run("no-deliver-after-stop", func(t *testing.T) {
		testTransportNoDeliverAfterStop(t, NewChanTransport(ChanOptions{Seed: 3}))
	})
}

func newTCP(t *testing.T) *TCPTransport {
	t.Helper()
	tr, err := NewTCPTransport()
	if err != nil {
		t.Skipf("cannot bind loopback listener: %v", err)
	}
	return tr
}

func TestTCPTransport(t *testing.T) {
	t.Run("one-deliver-per-send", func(t *testing.T) {
		testTransportOnePerSend(t, newTCP(t))
	})
	t.Run("partition-hold-release", func(t *testing.T) {
		testTransportPartition(t, newTCP(t))
	})
	t.Run("no-deliver-after-stop", func(t *testing.T) {
		testTransportNoDeliverAfterStop(t, newTCP(t))
	})
	t.Run("redial-after-write-error", func(t *testing.T) {
		testTCPRedialAfterWriteError(t, newTCP(t))
	})
}

// testTCPRedialAfterWriteError closes location 0's dialed connection under
// the transport: the next write on it fails, and every later 0>1 signal must
// still be delivered, over a fresh connection.
func testTCPRedialAfterWriteError(t *testing.T, tr *TCPTransport) {
	mu, got := collectDelivers(t, tr)
	defer tr.Stop()
	delivered := func() int {
		mu.Lock()
		defer mu.Unlock()
		return got[link(0, 1)]
	}
	tr.Send(link(0, 1))
	waitFor(t, func() bool { return delivered() == 1 })
	tr.mu.Lock()
	for _, c := range tr.raw {
		if c.RemoteAddr().String() == tr.Addr() { // dialed, not accepted
			c.Close()
		}
	}
	tr.mu.Unlock()
	const later = 20
	for i := 0; i < later; i++ {
		tr.Send(link(0, 1))
	}
	waitFor(t, func() bool { return delivered() == 1+later })
}

// TestTCPFrameRoundTrip exercises the wire framing directly: each link's
// frame arrives as that link, from several source connections.
func TestTCPFrameRoundTrip(t *testing.T) {
	tr := newTCP(t)
	mu, got := collectDelivers(t, tr)
	const links = 4
	for i := 0; i < links; i++ {
		tr.Send(link(i, i+1))
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, c := range got {
			n += c
		}
		return n == links
	})
	tr.Stop()
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < links; i++ {
		if got[link(i, i+1)] != 1 {
			t.Errorf("link %d>%d delivered %d times, want 1", i, i+1, got[link(i, i+1)])
		}
	}
}
