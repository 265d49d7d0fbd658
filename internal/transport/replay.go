package transport

import (
	"fmt"
	"sync"

	"repro/internal/protocol"
)

// Replay wraps c so its next Recv returns m once before delegating to
// the underlying connection, and Close additionally invokes onClose
// exactly once (nil is allowed). Servers that pre-read a handshake frame
// to route a connection — the fleet reads Hello to pick a session — hand
// the consumed frame back this way, so downstream code (Server.Run,
// Server.Rejoin) performs its own handshake unchanged. All optional
// connection faces (Faulter, Flusher, WireVersioner, SetPeer) are
// forwarded. m must be one the caller may keep (a control message such as
// the fleet's Hello); everything after it passes through under the inner
// connection's ownership rule (see Conn).
func Replay(m *protocol.Message, c Conn, onClose func()) Conn {
	return &replayConn{inner: c, head: m, onClose: onClose}
}

// replayConn delivers one buffered message ahead of the wrapped stream.
type replayConn struct {
	inner Conn

	mu   sync.Mutex        // guards head
	head *protocol.Message // guarded by mu; nil once replayed

	closeOnce sync.Once
	onClose   func()
}

// Recv implements Conn: the replayed frame first, then the live stream.
func (c *replayConn) Recv() (*protocol.Message, error) {
	c.mu.Lock()
	if m := c.head; m != nil {
		c.head = nil
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()
	return c.inner.Recv()
}

// Send implements Conn by delegation.
func (c *replayConn) Send(m *protocol.Message) error { return c.inner.Send(m) }

// Close implements Conn; onClose fires exactly once, before the inner
// close, so budget accounting never misses a teardown path.
func (c *replayConn) Close() error {
	c.closeOnce.Do(func() {
		if c.onClose != nil {
			c.onClose()
		}
	})
	return c.inner.Close()
}

// SendCorrupt implements Faulter when the wrapped fabric does.
func (c *replayConn) SendCorrupt(m *protocol.Message) error {
	if f, ok := c.inner.(Faulter); ok {
		return f.SendCorrupt(m)
	}
	return fmt.Errorf("transport: wrapped fabric cannot corrupt frames")
}

// Flush implements Flusher by delegation.
func (c *replayConn) Flush() error { return Flush(c.inner) }

// SetWireVersion implements WireVersioner by delegation.
func (c *replayConn) SetWireVersion(v int) { SetWireVersion(c.inner, v) }

// SetPeer forwards the relabeling hook of an instrumented connection.
func (c *replayConn) SetPeer(peer string) {
	if sp, ok := c.inner.(interface{ SetPeer(string) }); ok {
		sp.SetPeer(peer)
	}
}
