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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
)

// Conn is a bidirectional, message-oriented connection. Every fabric and
// wrapper keeps one byte-ownership rule (DESIGN.md §13.2), so that a
// steady-state round allocates nothing for the messages it moves:
//
//   - Send: once Send returns, the connection holds nothing the caller
//     passed in. The caller may overwrite the message and its slices at
//     once; a vehicle reuses one Upload and its vector every round.
//   - Recv: a Broadcast or Upload that Recv returns, payload included, is
//     valid until the next Recv on the same connection, which may
//     overwrite it; a caller that keeps one longer copies it. Hello,
//     Setup, Admission, Finished and Error messages are the caller's to
//     keep.
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
// on fabrics that do not encode frames (the in-memory pipe copies
// messages).
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

// pipeDepth is how many messages a pipe direction queues without a
// reader, which keeps simple test drivers deadlock-free.
const pipeDepth = 64

// pipeFrame is one message in flight on a pipe, in storage the pipe owns.
// Send copies the caller's message into a frame; the receiving end hands
// the frame back at its next Recv, and the sending end reuses it, so a
// pipe's steady-state traffic allocates nothing.
type pipeFrame struct {
	msg     protocol.Message   // a Broadcast or Upload, pointing at bc or up
	bc      protocol.Broadcast // valid while msg.Broadcast is set
	up      protocol.Upload    // valid while msg.Upload is set
	vals    []float64          // backing of bc.Params or up.Values
	ctl     *protocol.Message  // a fresh copy of a Setup or control message
	corrupt bool               // SendCorrupt's marker: Recv reports ErrCorruptFrame
}

// fill copies m into the frame: a Broadcast or Upload into the frame's own
// storage, anything else into a fresh deep copy the receiver keeps.
func (f *pipeFrame) fill(m *protocol.Message) {
	f.msg, f.ctl, f.corrupt = protocol.Message{}, nil, false
	switch {
	case m.Broadcast != nil:
		f.bc = *m.Broadcast
		f.bc.Params = f.payload(m.Broadcast.Params)
		f.msg.Broadcast = &f.bc
	case m.Upload != nil:
		f.up = *m.Upload
		f.up.Values = f.payload(m.Upload.Values)
		f.msg.Upload = &f.up
	default:
		f.ctl = cloneControl(m)
	}
}

// payload copies a bulk payload into the frame's buffer; empty travels as
// nil, as it does through a TCP frame.
func (f *pipeFrame) payload(src []float64) []float64 {
	if len(src) == 0 {
		return nil
	}
	f.vals = append(f.vals[:0], src...)
	return f.vals
}

// cloneControl deep-copies a message that is not a Broadcast or Upload.
func cloneControl(m *protocol.Message) *protocol.Message {
	out := *m
	switch {
	case m.Hello != nil:
		h := *m.Hello
		out.Hello = &h
	case m.Setup != nil:
		su := *m.Setup
		su.ActivationCoeffs = slices.Clone(m.Setup.ActivationCoeffs)
		if rows := m.Setup.RefX; len(rows) > 0 {
			// One block for the whole set, as a TCP decode makes it.
			n := 0
			for _, row := range rows {
				n += len(row)
			}
			flat := make([]float64, 0, n)
			su.RefX = make([][]float64, len(rows))
			for i, row := range rows {
				flat = append(flat, row...)
				su.RefX[i] = flat[len(flat)-len(row) : len(flat) : len(flat)]
			}
		}
		out.Setup = &su
	case m.Admission != nil:
		a := *m.Admission
		out.Admission = &a
	case m.Finished != nil:
		fin := *m.Finished
		out.Finished = &fin
	case m.Error != nil:
		e := *m.Error
		out.Error = &e
	}
	return &out
}

// pipeConn is one end of an in-memory duplex channel pair.
type pipeConn struct {
	in  <-chan *pipeFrame
	out chan<- *pipeFrame
	// spare holds frames this end's Sends may reuse; the peer's Recv puts
	// them there. recycle is the peer's spare, where this end's Recv puts
	// the frames it is done with.
	spare   chan *pipeFrame
	recycle chan<- *pipeFrame
	held    *pipeFrame // the frame the last Recv returned; receiver-only

	mu     sync.Mutex // guards closed
	closed bool       // guarded by mu
	done   chan struct{}
	peer   *pipeConn
}

// Pipe returns two connected in-memory ends. Each direction queues up to
// pipeDepth messages without a reader. Send copies the message, so the
// pipe keeps transport.Conn's ownership rule exactly as TCP does.
func Pipe() (Conn, Conn) {
	ab := make(chan *pipeFrame, pipeDepth)
	ba := make(chan *pipeFrame, pipeDepth)
	// Room for every frame that can be out at once: the queue, the one a
	// Recv holds and the one a Send is filling.
	abSpare := make(chan *pipeFrame, pipeDepth+2)
	baSpare := make(chan *pipeFrame, pipeDepth+2)
	a := &pipeConn{in: ba, out: ab, spare: abSpare, recycle: baSpare, done: make(chan struct{})}
	b := &pipeConn{in: ab, out: ba, spare: baSpare, recycle: abSpare, done: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

// frame returns a spare frame to send in, or a new one.
func (c *pipeConn) frame() *pipeFrame {
	select {
	case f := <-c.spare:
		return f
	default:
		return new(pipeFrame)
	}
}

// Send implements Conn: m is copied before Send returns.
func (c *pipeConn) Send(m *protocol.Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	f := c.frame()
	f.fill(m)
	return c.enqueue(f)
}

// SendCorrupt implements Faulter: the peer's Recv reports
// protocol.ErrCorruptFrame, mirroring what the TCP fabric does with a
// real flipped-CRC frame.
func (c *pipeConn) SendCorrupt(m *protocol.Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	f := c.frame()
	f.msg, f.ctl, f.corrupt = protocol.Message{}, nil, true
	return c.enqueue(f)
}

func (c *pipeConn) enqueue(f *pipeFrame) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return fmt.Errorf("transport: send on closed pipe")
	}
	select {
	case c.out <- f:
		return nil
	case <-c.done:
		return fmt.Errorf("transport: send on closed pipe")
	case <-c.peer.done:
		return fmt.Errorf("transport: peer closed")
	}
}

// Recv implements Conn. The frame the previous Recv returned goes back to
// the sender first: its message is no longer valid.
func (c *pipeConn) Recv() (*protocol.Message, error) {
	if c.held != nil {
		c.giveBack(c.held)
		c.held = nil
	}
	select {
	case f := <-c.in:
		return c.deliver(f)
	case <-c.done:
		return nil, fmt.Errorf("transport: recv on closed pipe")
	case <-c.peer.done:
		// Drain anything already queued before reporting closure.
		select {
		case f := <-c.in:
			return c.deliver(f)
		default:
			return nil, fmt.Errorf("transport: peer closed")
		}
	}
}

// deliver unpacks a received frame. A Broadcast or Upload is returned in
// place and the frame held until the next Recv; anything else leaves the
// frame at once.
func (c *pipeConn) deliver(f *pipeFrame) (*protocol.Message, error) {
	switch {
	case f.corrupt:
		c.giveBack(f)
		return nil, fmt.Errorf("transport: %w", protocol.ErrCorruptFrame)
	case f.ctl != nil:
		m := f.ctl
		f.ctl = nil
		c.giveBack(f)
		return m, nil
	}
	c.held = f
	return &f.msg, nil
}

// giveBack offers a frame to the peer's Sends; a full spare list drops it.
func (c *pipeConn) giveBack(f *pipeFrame) {
	select {
	case c.recycle <- f:
	default:
	}
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
	// br is set once at construction; its state and inbox (the frame
	// being read and the bulk message decoded last, kept between Recvs)
	// are touched under recvMu.
	br      *bufio.Reader
	inbox   protocol.Inbox
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

// maxKeptFrameBuf bounds the frame buffer a connection retains for its
// sends; a larger frame (a Setup carrying the reference set) gets a
// buffer that is dropped after it, so it does not pin its size for the
// connection's life. protocol.Inbox bounds the receive side alike.
const maxKeptFrameBuf = 64 << 10

// Send implements Conn: the frame is built in the connection's buffer
// and leaves in one Write, so nothing of m is kept.
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

// Recv implements Conn: a Broadcast or Upload is decoded into the
// connection's inbox and is valid until the next Recv.
func (c *tcpConn) Recv() (*protocol.Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	return protocol.ReadBuffered(c.br, &c.inbox)
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
