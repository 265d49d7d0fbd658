package chaos

import (
	"fmt"
	"sync"

	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// Options configures an Injector.
type Options struct {
	// Obs attaches fault counters (chaos.drops / corrupts / delays /
	// crashes) and per-fault trace events. Nil disables instrumentation.
	Obs *obs.Obs
	// Sleeper executes delay faults; nil selects obs.RealSleeper. Tests
	// inject obs.ManualSleeper so delay-heavy specs run without sleeping.
	Sleeper obs.Sleeper
}

// Injector owns one fault schedule and wraps connections with it. Crash
// faults fire at most once per peer across the Injector's lifetime, so a
// reconnecting vehicle wrapped again under the same peer index does not
// crash again on the retransmitted upload.
type Injector struct {
	spec  *Spec
	sleep obs.Sleeper
	o     *obs.Obs

	cDrops    *obs.Counter
	cCorrupts *obs.Counter
	cDelays   *obs.Counter
	cCrashes  *obs.Counter

	mu      sync.Mutex        // guards crashed
	crashed map[crashKey]bool // guarded by mu
}

type crashKey struct {
	peer, idx int
}

// New builds an Injector for the given spec (nil spec = fault-free).
func New(spec *Spec, opt Options) *Injector {
	if spec == nil {
		spec = &Spec{Seed: 1}
	}
	in := &Injector{
		spec:    spec,
		sleep:   opt.Sleeper,
		o:       opt.Obs,
		crashed: make(map[crashKey]bool),
	}
	if in.sleep == nil {
		in.sleep = obs.RealSleeper{}
	}
	if opt.Obs.Enabled() {
		in.cDrops = opt.Obs.Counter("chaos.drops", obs.CountOf("chaos.drop"))
		in.cCorrupts = opt.Obs.Counter("chaos.corrupts", obs.CountOf("chaos.corrupt"))
		in.cDelays = opt.Obs.Counter("chaos.delays", obs.CountOf("chaos.delay"))
		in.cCrashes = opt.Obs.Counter("chaos.crashes", obs.CountOf("chaos.crash"))
	}
	return in
}

// Spec returns the injector's fault specification.
func (in *Injector) Spec() *Spec { return in.spec }

// Wrap decorates c with the fault schedule for the given peer index. Each
// call derives an independent deterministic stream from (Spec.Seed, peer),
// so wrapping the same peer's reconnection replays a fresh but
// reproducible schedule. The wrapper preserves the fabric's concurrency
// contract: one concurrent sender, one concurrent receiver.
func (in *Injector) Wrap(peer int, c transport.Conn) transport.Conn {
	return &conn{
		in:    in,
		peer:  peer,
		inner: c,
		src:   field.NewSeededSource(peerSeed(in.spec.Seed, peer)),
		hits:  make([]int, len(in.spec.Rules)),
	}
}

// peerSeed mixes the master seed with the peer index so every peer draws
// from its own stream. The SeededSource steps its state by the golden
// ratio γ, so states a multiple of γ apart would give shifted copies of
// one stream (peer p's k-th draw peer 0's (k+p)-th); the state
// seed + (p+1)·γ is therefore put through splitmix64's output function.
func peerSeed(seed int64, peer int) int64 {
	return int64(field.NewSeededSource(int64(uint64(seed) + uint64(peer)*0x9e3779b97f4a7c15)).Uint64())
}

// conn applies the schedule on the send side; Recv and Close pass
// through (faults on inbound traffic are injected by the peer's wrapper).
// All mutable state (src, msg, hits) is touched only under the
// one-concurrent-sender contract, so no lock is needed here.
type conn struct {
	in    *Injector
	peer  int
	inner transport.Conn
	src   *field.SeededSource
	msg   int   // messages offered to Send so far
	hits  []int // per-rule fire counts on this connection
}

// Send implements transport.Conn, running the message through the fault
// schedule: a scheduled crash closes the connection around the round's
// upload; otherwise the first matching-and-firing rule decides the
// message's fate (drop, corrupt, or delay-then-deliver). A delay sleeps
// inside the call, so Send is done with m when it returns and the wrapper
// keeps transport.Conn's ownership rule.
func (c *conn) Send(m *protocol.Message) error {
	idx := c.msg
	c.msg++
	kind := m.Kind()

	if m.Upload != nil {
		for ci, cr := range c.in.spec.Crashes {
			if cr.Peer >= 0 && cr.Peer != c.peer {
				continue
			}
			if cr.Round != m.Upload.Round || !c.in.claimCrash(c.peer, ci) {
				continue
			}
			c.in.event(c.in.cCrashes, "chaos.crash", c.peer, kind, idx,
				obs.F("point", cr.Point), obs.F("round", cr.Round))
			if cr.Point == "before-upload" {
				_ = c.inner.Close()
				return fmt.Errorf("chaos: injected crash before upload (peer %d round %d)", c.peer, cr.Round)
			}
			err := c.inner.Send(m)
			_ = c.inner.Close()
			return err
		}
	}

	for ri := range c.in.spec.Rules {
		r := &c.in.spec.Rules[ri]
		if r.Peer >= 0 && r.Peer != c.peer {
			continue
		}
		if r.Kind != "" && r.Kind != kind {
			continue
		}
		if r.Max > 0 && c.hits[ri] >= r.Max {
			continue
		}
		if c.uniform() >= r.Prob {
			continue
		}
		c.hits[ri]++
		switch r.Fault {
		case "drop":
			c.in.event(c.in.cDrops, "chaos.drop", c.peer, kind, idx)
			return nil // silently lost, like a radio shadow
		case "corrupt":
			c.in.event(c.in.cCorrupts, "chaos.corrupt", c.peer, kind, idx)
			if f, ok := c.inner.(transport.Faulter); ok {
				return f.SendCorrupt(m)
			}
			return nil // fabric cannot corrupt: degrade to a drop
		case "delay":
			if c.in.o.TraceEnabled() {
				c.in.event(c.in.cDelays, "chaos.delay", c.peer, kind, idx,
					obs.F("delay_ns", int64(r.Delay)))
			} else {
				c.in.cDelays.Inc() // the boxed field would allocate every delay
			}
			c.in.sleep.Sleep(r.Delay)
			return c.inner.Send(m)
		}
	}
	return c.inner.Send(m)
}

// Recv implements transport.Conn.
func (c *conn) Recv() (*protocol.Message, error) { return c.inner.Recv() }

// Close implements transport.Conn.
func (c *conn) Close() error { return c.inner.Close() }

// Flush and SetWireVersion forward the optional transport faces so a
// chaos wrapper is transparent to flush barriers and wire-version
// negotiation.
func (c *conn) Flush() error         { return transport.Flush(c.inner) }
func (c *conn) SetWireVersion(v int) { transport.SetWireVersion(c.inner, v) }

// uniform draws a float64 in [0, 1) from the connection's stream.
func (c *conn) uniform() float64 {
	return float64(c.src.Uint64()>>11) / float64(1<<53)
}

// claimCrash marks crash idx fired for peer, returning whether this call
// claimed it (each crash fires once per peer per Injector).
func (in *Injector) claimCrash(peer, idx int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	k := crashKey{peer: peer, idx: idx}
	if in.crashed[k] {
		return false
	}
	in.crashed[k] = true
	return true
}

// event bumps the fault counter and emits the fault's trace event.
func (in *Injector) event(c *obs.Counter, name string, peer int, kind string, idx int, extra ...obs.Field) {
	c.Inc()
	if in.o.TraceEnabled() {
		fields := append([]obs.Field{
			obs.F("peer", peer), obs.F("kind", kind), obs.F("msg", idx),
		}, extra...)
		in.o.Emit(name, fields...)
	}
}
