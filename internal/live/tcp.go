package live

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"

	"repro/internal/ioa"
)

// TCPTransport carries delivery signals over real loopback TCP sockets: one
// listener, one connection per source location (dialed lazily on first
// send), one fixed 8-byte frame per signal naming its link.  The frames
// genuinely cross the kernel's stack, so arrival timing is real network
// timing, while the message itself stays in the channel automaton inside
// the shared composition — the one authority on what is delivered — which
// is what keeps the one-implementation-two-backends contract intact while
// exercising a real wire.  Partitions are enforced on the receive side:
// frames for cross-side links are parked until the partition heals,
// exactly like ChanTransport.
type TCPTransport struct {
	partitionGate // mu also guards conns and raw

	ln    net.Listener
	conns map[ioa.Loc]net.Conn // per-source dialed connection
	raw   []net.Conn
	wg    sync.WaitGroup
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport binds a loopback listener.  Bind failures are ErrInfra.
func NewTCPTransport() (*TCPTransport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, Infra(err)
	}
	return &TCPTransport{ln: ln, conns: make(map[ioa.Loc]net.Conn)}, nil
}

// Addr returns the listener address frames travel through.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Start implements Transport: install the callback and accept reader
// connections for the life of the transport.
func (t *TCPTransport) Start(deliver func(Link)) error {
	if err := t.partitionGate.Start(deliver); err != nil {
		return err
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			conn, err := t.ln.Accept()
			if err != nil {
				return // listener closed by Stop
			}
			t.mu.Lock()
			if t.stopped {
				t.mu.Unlock()
				conn.Close()
				return
			}
			t.raw = append(t.raw, conn)
			t.mu.Unlock()
			t.wg.Add(1)
			go t.read(conn)
		}
	}()
	return nil
}

// frameLen is the size of a frame: [from int32][to int32].
const frameLen = 8

// read drains one sender connection, handing each frame to the runtime.
func (t *TCPTransport) read(conn net.Conn) {
	defer t.wg.Done()
	br := bufio.NewReader(conn)
	var f [frameLen]byte
	for {
		if _, err := io.ReadFull(br, f[:]); err != nil {
			return // EOF or closed by Stop
		}
		t.fire(Link{
			From: ioa.Loc(int32(binary.BigEndian.Uint32(f[0:]))),
			To:   ioa.Loc(int32(binary.BigEndian.Uint32(f[4:]))),
		})
	}
}

// Send implements Transport: write the link's frame onto the source
// location's connection, dialing it on first use.  A failed write closes and
// evicts the connection — a broken connection would drop every later signal
// from that location — and the frame is resent once on a fresh dial.  A
// failure after that is dropped: during teardown it is expected noise, and
// outside teardown a lost signal surfaces as an undelivered channel head,
// which the conformance checkers flag.
func (t *TCPTransport) Send(l Link) {
	var f [frameLen]byte
	binary.BigEndian.PutUint32(f[0:], uint32(int32(l.From)))
	binary.BigEndian.PutUint32(f[4:], uint32(int32(l.To)))
	t.mu.Lock()
	defer t.mu.Unlock()
	for attempt := 0; attempt < 2 && !t.stopped; attempt++ {
		conn := t.conns[l.From]
		if conn == nil {
			var err error
			if conn, err = net.Dial("tcp", t.ln.Addr().String()); err != nil {
				return
			}
			t.raw = append(t.raw, conn)
			t.conns[l.From] = conn
		}
		if _, err := conn.Write(f[:]); err == nil {
			return
		}
		conn.Close()
		delete(t.conns, l.From)
	}
}

// Stop implements Transport: close the listener and every connection, then
// wait for the accept and reader goroutines so no deliver callback outlives
// the call.
func (t *TCPTransport) Stop() {
	t.mu.Lock()
	if t.stopLocked() {
		t.mu.Unlock()
		return
	}
	conns := t.raw
	t.raw = nil
	t.mu.Unlock()
	t.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
}
