package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// snapshot is the process state read synchronously at a window edge.
type snapshot struct {
	at         time.Duration
	cpu        time.Duration // process user+sys
	mallocs    uint64
	allocBytes uint64
	wire       int64
}

// meter observes one session from outside: it is shared by the wrappers
// around every fusion-side connection. All Sends on those connections
// come from the goroutine inside node.Server.Run, so the round-boundary
// state needs no lock; Recv runs on the server's per-connection receiver
// goroutines, so the byte counter is atomic.
type meter struct {
	clock obs.Clock

	lastRound int
	finished  bool
	// starts holds the first-Broadcast instant of every timed round and,
	// last, the first-Finished instant; consecutive differences are the
	// round latencies.
	starts []time.Duration
	// sliceCPU holds the process CPU time at the start of every
	// sliceRounds-th timed round, the first included: one getrusage call
	// per slice, so each slice has its own CPU cost beside its own rate.
	sliceRounds int
	sliceCPU    []time.Duration
	open, close snapshot

	wire atomic.Int64

	// rec is nil in timed runs, where the wrapper does nothing beyond the
	// boundary stamps and the byte count.
	rec *recording
}

func newMeter(clock obs.Clock, rounds, sliceRounds int) *meter {
	return &meter{
		clock:       clock,
		starts:      make([]time.Duration, 0, rounds+1),
		sliceRounds: sliceRounds,
		sliceCPU:    make([]time.Duration, 0, rounds/sliceRounds+1),
	}
}

func (m *meter) snap(at time.Duration) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{at: at, cpu: processCPU(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, wire: m.wire.Load()}
}

// onSend stamps round boundaries: the first Broadcast of each round and
// the first Finished.
func (m *meter) onSend(msg *protocol.Message) {
	switch {
	case msg.Broadcast != nil && msg.Broadcast.Round > m.lastRound:
		m.lastRound = msg.Broadcast.Round
		if m.lastRound <= warmupRounds {
			return
		}
		now := m.clock.Now()
		if len(m.starts)%m.sliceRounds == 0 {
			m.sliceCPU = append(m.sliceCPU, processCPU())
		}
		m.starts = append(m.starts, now)
		if m.lastRound == warmupRounds+1 {
			m.open = m.snap(now)
		}
	case msg.Finished != nil && !m.finished:
		m.finished = true
		now := m.clock.Now()
		m.close = m.snap(now)
		if len(m.starts)%m.sliceRounds == 0 {
			m.sliceCPU = append(m.sliceCPU, m.close.cpu)
		}
		m.starts = append(m.starts, now)
	}
}

// processCPU is the process's user+system CPU time: fusion centre and
// every vehicle goroutine together.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fusionConn wraps one fusion-side connection. It forwards Flush and
// SetWireVersion, the optional transport faces a session's code path
// discovers by type assertion; Pending is only asked by relays and
// SetPeer is implemented by neither fabric.
type fusionConn struct {
	inner   transport.Conn
	m       *meter
	version atomic.Int32

	// Recording state, untouched in timed runs. vehicle is learned from
	// the peer's Hello; lastSend indexes this connection's latest send
	// event so Flush can close it.
	vehicle  int
	lastSend int
	mu       sync.Mutex  // guards recvs and captured
	recvs    []recvEvent // guarded by mu
	captured []float64   // guarded by mu; the capture round's upload
}

func newFusionConn(inner transport.Conn, m *meter) *fusionConn {
	c := &fusionConn{inner: inner, m: m, vehicle: -1, lastSend: -1}
	c.version.Store(2) // what every fabric frames at before negotiation
	return c
}

// roundTraffic reports whether msg is per-round traffic. Hello and Setup
// are left out of the byte count: sizing a JSON Setup marshals it, which
// would add work to the set-up this harness also times.
func roundTraffic(msg *protocol.Message) bool {
	return msg.Broadcast != nil || msg.Upload != nil || msg.Finished != nil
}

func (c *fusionConn) Send(msg *protocol.Message) error {
	c.m.onSend(msg)
	if roundTraffic(msg) {
		c.m.wire.Add(int64(protocol.EncodedSizeVersion(msg, int(c.version.Load()))))
	}
	rec := c.m.rec
	if rec == nil {
		return c.inner.Send(msg)
	}
	ev := sendEvent{vehicle: c.vehicle, round: c.m.lastRound, broadcast: msg.Broadcast != nil, start: c.m.clock.Now()}
	if msg.Broadcast != nil && msg.Broadcast.Round == rec.captureRound && rec.broadcast == nil {
		rec.broadcast = append([]float64(nil), msg.Broadcast.Params...)
	}
	err := c.inner.Send(msg)
	ev.end = c.m.clock.Now()
	c.lastSend = len(rec.sends)
	rec.sends = append(rec.sends, ev)
	return err
}

func (c *fusionConn) Flush() error {
	err := transport.Flush(c.inner)
	if rec := c.m.rec; rec != nil && c.lastSend >= 0 {
		rec.sends[c.lastSend].end = c.m.clock.Now()
		c.lastSend = -1
	}
	return err
}

func (c *fusionConn) Recv() (*protocol.Message, error) {
	msg, err := c.inner.Recv()
	if err != nil {
		return msg, err
	}
	if roundTraffic(msg) {
		c.m.wire.Add(int64(protocol.EncodedSizeVersion(msg, int(c.version.Load()))))
	}
	if rec := c.m.rec; rec != nil {
		now := c.m.clock.Now()
		c.mu.Lock()
		switch {
		case msg.Hello != nil:
			c.vehicle = msg.Hello.VehicleID
		case msg.Upload != nil:
			c.recvs = append(c.recvs, recvEvent{vehicle: msg.Upload.VehicleID, round: msg.Upload.Round, at: now})
			if msg.Upload.Round == rec.captureRound && c.captured == nil {
				c.captured = append([]float64(nil), msg.Upload.Values...)
			}
		}
		c.mu.Unlock()
	}
	return msg, nil
}

func (c *fusionConn) Close() error { return c.inner.Close() }

func (c *fusionConn) SetWireVersion(v int) {
	c.version.Store(int32(v))
	transport.SetWireVersion(c.inner, v)
}

// vehicleTap records, in the traced pass only, when a vehicle got each
// Broadcast and how long its Upload send took. One goroutine (the
// vehicle's) drives it; the mutex orders its events with the reader
// after the session.
type vehicleTap struct {
	inner   transport.Conn
	clock   obs.Clock
	vehicle int

	mu     sync.Mutex     // guards events
	events []vehicleEvent // guarded by mu
	gotBc  time.Duration
	open   int // index of the event awaiting its Flush, or -1
}

func (t *vehicleTap) Recv() (*protocol.Message, error) {
	msg, err := t.inner.Recv()
	if err == nil && msg.Broadcast != nil {
		t.gotBc = t.clock.Now()
	}
	return msg, err
}

func (t *vehicleTap) Send(msg *protocol.Message) error {
	if msg.Upload == nil {
		return t.inner.Send(msg)
	}
	ev := vehicleEvent{vehicle: t.vehicle, round: msg.Upload.Round, gotBroadcast: t.gotBc, sendStart: t.clock.Now()}
	err := t.inner.Send(msg)
	ev.sendEnd = t.clock.Now()
	t.mu.Lock()
	t.open = len(t.events)
	t.events = append(t.events, ev)
	t.mu.Unlock()
	return err
}

func (t *vehicleTap) Flush() error {
	err := transport.Flush(t.inner)
	t.mu.Lock()
	if t.open >= 0 {
		t.events[t.open].sendEnd = t.clock.Now()
		t.open = -1
	}
	t.mu.Unlock()
	return err
}

func (t *vehicleTap) Close() error         { return t.inner.Close() }
func (t *vehicleTap) SetWireVersion(v int) { transport.SetWireVersion(t.inner, v) }
