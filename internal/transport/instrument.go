package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// ConnStats is a point-in-time copy of one instrumented connection's
// traffic totals.
type ConnStats struct {
	SentMsgs, SentBytes, SendErrors int64
	RecvMsgs, RecvBytes, RecvErrors int64
}

// Instrument wraps a connection with traffic accounting: registry-wide
// counters (transport.send_msgs / send_bytes / send_errors and the recv
// trio), per-connection totals (Stats), and — with tracing on — one
// transport.send / transport.recv event per message carrying the peer
// label, message kind and wire size. With a disabled Obs the original
// connection is returned untouched, so the default path pays nothing.
//
// peer is the initial label on this connection's trace events; the
// fusion centre relabels a conn once the vehicle identifies itself via
// SetPeer (node.Server type-asserts for it after the handshake).
func Instrument(c Conn, o *obs.Obs, peer string) Conn {
	if !o.Enabled() {
		return c
	}
	ic := &instrumentedConn{inner: c, o: o, peer: peer}
	ic.version.Store(protocol.Version)
	ic.cSendMsgs = o.Counter("transport.send_msgs")
	ic.cSendBytes = o.Counter("transport.send_bytes")
	ic.cSendErrors = o.Counter("transport.send_errors")
	ic.cRecvMsgs = o.Counter("transport.recv_msgs")
	ic.cRecvBytes = o.Counter("transport.recv_bytes")
	ic.cRecvErrors = o.Counter("transport.recv_errors")
	return ic
}

// instrumentedConn decorates a Conn with counters and trace events. The
// concurrency contract matches the wrapped fabrics: one concurrent
// sender, one concurrent receiver, Close from anywhere — the wrapper
// itself adds only atomics and a mutex-guarded peer label, so it stays
// race-clean under close-vs-send stress (instrument_test.go).
type instrumentedConn struct {
	inner   Conn
	o       *obs.Obs
	version atomic.Int32 // mirrors the inner conn's negotiated wire version

	mu   sync.Mutex // guards peer
	peer string     // guarded by mu

	stats struct {
		sentMsgs, sentBytes, sendErrors atomic.Int64
		recvMsgs, recvBytes, recvErrors atomic.Int64
	}

	cSendMsgs, cSendBytes, cSendErrors *obs.Counter
	cRecvMsgs, cRecvBytes, cRecvErrors *obs.Counter
}

// SetPeer relabels the connection's trace events — called by the fusion
// centre once a Hello identifies which vehicle is on the other end.
func (c *instrumentedConn) SetPeer(peer string) {
	c.mu.Lock()
	c.peer = peer
	c.mu.Unlock()
}

func (c *instrumentedConn) peerLabel() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peer
}

// SetWireVersion implements WireVersioner, mirroring the version locally
// so byte accounting matches what actually goes on the wire, then
// forwarding to the wrapped fabric.
func (c *instrumentedConn) SetWireVersion(v int) {
	c.version.Store(int32(v))
	SetWireVersion(c.inner, v)
}

// Flush implements Flusher by delegation.
func (c *instrumentedConn) Flush() error { return Flush(c.inner) }

// SendCorrupt implements Faulter when the wrapped fabric does.
func (c *instrumentedConn) SendCorrupt(m *protocol.Message) error {
	f, ok := c.inner.(Faulter)
	if !ok {
		return fmt.Errorf("transport: wrapped fabric cannot corrupt frames")
	}
	err := f.SendCorrupt(m)
	if err != nil {
		c.stats.sendErrors.Add(1)
		c.cSendErrors.Inc()
		return err
	}
	bytes := int64(protocol.EncodedSizeVersion(m, int(c.version.Load())))
	c.stats.sentMsgs.Add(1)
	c.stats.sentBytes.Add(bytes)
	c.cSendMsgs.Inc()
	c.cSendBytes.Add(bytes)
	return nil
}

// Stats returns the connection's traffic totals so far.
func (c *instrumentedConn) Stats() ConnStats {
	return ConnStats{
		SentMsgs:   c.stats.sentMsgs.Load(),
		SentBytes:  c.stats.sentBytes.Load(),
		SendErrors: c.stats.sendErrors.Load(),
		RecvMsgs:   c.stats.recvMsgs.Load(),
		RecvBytes:  c.stats.recvBytes.Load(),
		RecvErrors: c.stats.recvErrors.Load(),
	}
}

// Send implements Conn.
func (c *instrumentedConn) Send(m *protocol.Message) error {
	err := c.inner.Send(m)
	if err != nil {
		c.stats.sendErrors.Add(1)
		c.cSendErrors.Inc()
		return err
	}
	bytes := int64(protocol.EncodedSizeVersion(m, int(c.version.Load())))
	c.stats.sentMsgs.Add(1)
	c.stats.sentBytes.Add(bytes)
	c.cSendMsgs.Inc()
	c.cSendBytes.Add(bytes)
	if c.o.TraceEnabled() {
		c.emitMsg("transport.send", m, bytes)
	}
	return nil
}

// emitMsg records one per-message trace event, attaching the message's
// propagated trace context when it carries one so the merged timeline
// (cmd/tracereport -merge) can tie wire activity to round spans.
func (c *instrumentedConn) emitMsg(event string, m *protocol.Message, bytes int64) {
	fields := make([]obs.Field, 0, 5)
	fields = append(fields,
		obs.F("peer", c.peerLabel()),
		obs.F("kind", m.Kind()),
		obs.F("bytes", bytes))
	if trace, span := m.TraceContext(); trace != "" {
		fields = append(fields, obs.F("trace", trace))
		if span != "" {
			fields = append(fields, obs.F("span", span))
		}
	}
	c.o.Emit(event, fields...)
}

// Recv implements Conn.
func (c *instrumentedConn) Recv() (*protocol.Message, error) {
	m, err := c.inner.Recv()
	if err != nil {
		c.stats.recvErrors.Add(1)
		c.cRecvErrors.Inc()
		return nil, err
	}
	bytes := int64(protocol.EncodedSizeVersion(m, int(c.version.Load())))
	c.stats.recvMsgs.Add(1)
	c.stats.recvBytes.Add(bytes)
	c.cRecvMsgs.Inc()
	c.cRecvBytes.Add(bytes)
	if c.o.TraceEnabled() {
		c.emitMsg("transport.recv", m, bytes)
	}
	return m, nil
}

// Close implements Conn.
func (c *instrumentedConn) Close() error { return c.inner.Close() }
