// Package transport carries protocol messages between the fusion centre
// and the vehicles. Two interchangeable fabrics are provided: an
// in-memory pipe for tests and single-process simulation, and TCP with
// length-prefixed framing for genuinely distributed deployments. Both
// expose the same Conn interface, so package node is fabric-agnostic.
package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
)

// Conn is a bidirectional, message-oriented connection.
type Conn interface {
	// Send writes one message; it is safe for one concurrent sender.
	Send(m *protocol.Message) error
	// Recv blocks for the next message; io.EOF signals a clean close.
	Recv() (*protocol.Message, error)
	// Close releases the connection; Recv on the peer unblocks.
	Close() error
}

// Faulter is the optional fault-injection face of a fabric: SendCorrupt
// delivers m as a frame that fails the receiver's checksum, so the peer's
// Recv returns protocol.ErrCorruptFrame while the stream stays usable.
// Both built-in fabrics implement it — TCP by writing a real frame with a
// flipped CRC, the pipe by delivering a corruption marker — so the chaos
// layer (internal/chaos) exercises the genuine detection path end-to-end.
type Faulter interface {
	SendCorrupt(m *protocol.Message) error
}

// Flusher is the optional coalescing face of a connection: a fabric or
// wrapper that buffers writes exposes Flush to push pending frames onto
// the wire in one syscall. Neither built-in fabric buffers, so Flush is a
// no-op on them; node.Server still places the flush barriers.
type Flusher interface {
	Flush() error
}

// WireVersioner is the optional negotiated-revision face: after the
// handshake, node code records the revision it negotiated on the
// connection. Every encoding fabric starts at protocol.Version, the only
// revision the handshake admits, so the call changes nothing today; it is
// kept as the hook a later revision needs (and because wrappers outside
// this package learn the revision through it).
type WireVersioner interface {
	SetWireVersion(v int)
}

// Flush pushes any buffered frames on c; connections without a write
// buffer report success immediately.
func Flush(c Conn) error {
	if f, ok := c.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// SetWireVersion records the negotiated protocol version on c. A no-op
// on fabrics that do not encode frames (the in-memory pipe passes
// message pointers).
func SetWireVersion(c Conn, v int) {
	if w, ok := c.(WireVersioner); ok {
		w.SetWireVersion(v)
	}
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks for the next connection.
	Accept() (Conn, error)
	// Addr returns the listen address ("" for in-memory).
	Addr() string
	// Close stops accepting; pending Accepts unblock with an error.
	Close() error
}

// --- in-memory fabric ---

// pipeConn is one end of an in-memory duplex channel pair.
type pipeConn struct {
	in  <-chan *protocol.Message
	out chan<- *protocol.Message

	mu     sync.Mutex // guards closed
	closed bool       // guarded by mu
	done   chan struct{}
	peer   *pipeConn
}

// Pipe returns two connected in-memory ends. The internal buffer lets a
// round of messages queue without a reader, which keeps simple test
// drivers deadlock-free.
func Pipe() (Conn, Conn) {
	ab := make(chan *protocol.Message, 64)
	ba := make(chan *protocol.Message, 64)
	a := &pipeConn{in: ba, out: ab, done: make(chan struct{})}
	b := &pipeConn{in: ab, out: ba, done: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

// corruptMarker is the in-memory stand-in for a frame that fails its
// checksum: SendCorrupt enqueues it and the receiving end's Recv
// translates it into protocol.ErrCorruptFrame, mirroring what the TCP
// fabric does with a real flipped-CRC frame.
var corruptMarker = &protocol.Message{}

// Send implements Conn.
func (c *pipeConn) Send(m *protocol.Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	return c.enqueue(m)
}

// SendCorrupt implements Faulter.
func (c *pipeConn) SendCorrupt(m *protocol.Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	return c.enqueue(corruptMarker)
}

func (c *pipeConn) enqueue(m *protocol.Message) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return fmt.Errorf("transport: send on closed pipe")
	}
	select {
	case c.out <- m:
		return nil
	case <-c.done:
		return fmt.Errorf("transport: send on closed pipe")
	case <-c.peer.done:
		return fmt.Errorf("transport: peer closed")
	}
}

// Recv implements Conn.
func (c *pipeConn) Recv() (*protocol.Message, error) {
	select {
	case m := <-c.in:
		return c.deliver(m)
	case <-c.done:
		return nil, fmt.Errorf("transport: recv on closed pipe")
	case <-c.peer.done:
		// Drain anything already queued before reporting closure.
		select {
		case m := <-c.in:
			return c.deliver(m)
		default:
			return nil, fmt.Errorf("transport: peer closed")
		}
	}
}

// deliver translates the corruption marker; honest messages pass through.
func (c *pipeConn) deliver(m *protocol.Message) (*protocol.Message, error) {
	if m == corruptMarker {
		return nil, fmt.Errorf("transport: %w", protocol.ErrCorruptFrame)
	}
	return m, nil
}

// Close implements Conn.
func (c *pipeConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	return nil
}

// --- TCP fabric ---

// tcpConn frames protocol messages over a net.Conn; each Send is one
// write.
type tcpConn struct {
	conn    net.Conn
	version atomic.Int32 // negotiated wire version for framing (starts at protocol.Version)
	sendMu  sync.Mutex   // serializes frame writes on conn
	// sendBuf is the frame under construction, kept between Sends so
	// steady-state framing allocates nothing; guarded by sendMu.
	sendBuf []byte
	recvMu  sync.Mutex // serializes frame reads on conn
	// br is set once at construction; its state and recvBuf (the frame
	// being read, kept between Recvs) are touched under recvMu.
	br      *bufio.Reader
	recvBuf []byte
	closeMu sync.Mutex // guards closed
	closed  bool       // guarded by closeMu
}

func newTCPConn(c net.Conn) *tcpConn {
	t := &tcpConn{conn: c, br: bufio.NewReaderSize(c, defaultReadBuffer)}
	t.version.Store(protocol.Version)
	return t
}

// defaultReadBuffer sizes the read buffer every connection has: bufio's
// own default, room for a steady-state frame of a few hundred values,
// header included. A frame's header and body arrive in one read where the
// kernel has both.
const defaultReadBuffer = 4096

// SetWireVersion implements WireVersioner: subsequent Sends frame at v.
func (c *tcpConn) SetWireVersion(v int) { c.version.Store(int32(v)) }

// maxKeptFrameBuf bounds the frame buffer a connection retains in each
// direction; a larger frame (a Setup carrying the reference set) gets a
// buffer that is dropped after it, so it does not pin its size for the
// connection's life.
const maxKeptFrameBuf = 64 << 10

// Send implements Conn: the frame is built in the connection's buffer
// and leaves in one Write.
func (c *tcpConn) Send(m *protocol.Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	frame, err := protocol.AppendFrame(c.sendBuf[:0], m, int(c.version.Load()))
	if err != nil {
		return err
	}
	if cap(frame) <= maxKeptFrameBuf {
		c.sendBuf = frame
	}
	if _, err := c.conn.Write(frame); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// SendCorrupt implements Faulter: the frame goes out with a flipped
// CRC-32, so the peer detects real on-the-wire corruption.
func (c *tcpConn) SendCorrupt(m *protocol.Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return protocol.WriteCorrupt(c.conn, m)
}

// Recv implements Conn.
func (c *tcpConn) Recv() (*protocol.Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	m, err := protocol.ReadBuffered(c.br, &c.recvBuf)
	if cap(c.recvBuf) > maxKeptFrameBuf {
		c.recvBuf = nil
	}
	return m, err
}

// Close implements Conn.
func (c *tcpConn) Close() error {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// tcpListener adapts net.Listener.
type tcpListener struct {
	l net.Listener
}

// ListenTCP starts a listener on addr ("127.0.0.1:0" picks a free port).
func ListenTCP(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{l: l}, nil
}

// Accept implements Listener.
func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return newTCPConn(c), nil
}

// Addr implements Listener.
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

// Close implements Listener.
func (t *tcpListener) Close() error { return t.l.Close() }

// DefaultDialTimeout bounds DialTCP: a black-holed fusion centre (packets
// silently dropped, no RST) must not hang a vehicle forever.
const DefaultDialTimeout = 10 * time.Second

// DialTCP connects to a fusion centre at addr with DefaultDialTimeout.
func DialTCP(addr string) (Conn, error) {
	return DialTCPTimeout(addr, DefaultDialTimeout)
}

// DialTCPTimeout connects to a fusion centre at addr, failing after the
// given timeout (<= 0 selects DefaultDialTimeout).
func DialTCPTimeout(addr string, timeout time.Duration) (Conn, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	d := net.Dialer{Timeout: timeout}
	c, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPConn(c), nil
}
