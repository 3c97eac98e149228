package live

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/ioa"
)

// TCPTransport carries delivery signals over real loopback TCP sockets: one
// listener, one connection per source location (dialed lazily on first
// send), length-prefixed frames.  The authoritative message queue remains
// the channel automaton inside the shared composition — the socket carries
// a copy of the payload so the bytes genuinely cross the kernel's stack and
// arrival timing is real network timing — which is what keeps the one-
// implementation-two-backends contract intact while exercising a real
// wire.  Partitions are enforced on the receive side: frames for cross-side
// links are parked until the partition heals, exactly like ChanTransport.
type TCPTransport struct {
	partitionGate // mu also guards conns and raw

	ln    net.Listener
	conns map[ioa.Loc]*dialed // per-source dialed connection
	raw   []net.Conn
	wg    sync.WaitGroup
}

// dialed is one source location's connection and the writer framing onto it.
type dialed struct {
	conn net.Conn
	w    *bufio.Writer
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport binds a loopback listener.  Bind failures are ErrInfra.
func NewTCPTransport() (*TCPTransport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, Infra(err)
	}
	return &TCPTransport{ln: ln, conns: make(map[ioa.Loc]*dialed)}, nil
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

// frame is [from int32][to int32][len uint32][payload].
func writeFrame(w *bufio.Writer, l Link, payload string) error {
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(int32(l.From)))
	binary.BigEndian.PutUint32(hdr[4:], uint32(int32(l.To)))
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.WriteString(payload); err != nil {
		return err
	}
	return w.Flush()
}

func readFrame(r *bufio.Reader) (Link, string, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Link{}, "", err
	}
	l := Link{
		From: ioa.Loc(int32(binary.BigEndian.Uint32(hdr[0:]))),
		To:   ioa.Loc(int32(binary.BigEndian.Uint32(hdr[4:]))),
	}
	n := binary.BigEndian.Uint32(hdr[8:])
	if n > 1<<20 {
		return Link{}, "", fmt.Errorf("live: tcp frame payload %d bytes exceeds bound", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Link{}, "", err
	}
	return l, string(buf), nil
}

// read drains one sender connection, handing each frame to the runtime.
func (t *TCPTransport) read(conn net.Conn) {
	defer t.wg.Done()
	br := bufio.NewReader(conn)
	for {
		l, _, err := readFrame(br)
		if err != nil {
			return // EOF or closed by Stop
		}
		t.fire(l)
	}
}

// Send implements Transport: frame the message onto the source location's
// connection, dialing it on first use.  A failed write closes and evicts the
// connection — a bufio.Writer's error is sticky, so keeping it would drop
// every later signal from that location — and the frame is resent once on a
// fresh dial.  A failure after that is dropped: during teardown it is
// expected noise, and outside teardown a lost signal surfaces as an
// undelivered channel head, which the conformance checkers flag.
func (t *TCPTransport) Send(l Link, payload string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for attempt := 0; attempt < 2 && !t.stopped; attempt++ {
		d := t.conns[l.From]
		if d == nil {
			conn, err := net.Dial("tcp", t.ln.Addr().String())
			if err != nil {
				return
			}
			t.raw = append(t.raw, conn)
			d = &dialed{conn: conn, w: bufio.NewWriter(conn)}
			t.conns[l.From] = d
		}
		if writeFrame(d.w, l, payload) == nil {
			return
		}
		d.conn.Close()
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
