package node

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// Relay is the roadside-unit role of the paper's Fig. 1: edge servers
// that are not the fusion centre "act as the relay nodes between the
// fusion centre and vehicles". A relay accepts vehicle connections and
// pipes each one to its own upstream connection to the fusion centre, so
// vehicles out of the fusion centre's direct coverage still participate.
//
// At protocol revision 5 the relay is an aggregation-tree node rather
// than a blind pipe: uploads from the vehicles behind it (its shard) are
// parked in a gatherer and forwarded upstream as combined Gather frames
// — one wire frame per shard burst instead of one per vehicle. Payloads
// are still never altered, only re-grouped, so the security analysis is
// unchanged: a malicious relay remains equivalent to a lossy/corrupting
// channel on its shard, which the verification channel already covers.
// On legs that negotiated an older revision the relay stays a
// transparent pipe.
//
// Failure degrades, never cascades: an upstream dial failure closes that
// one vehicle's connection (the vehicle's retry logic then dials the
// fusion centre directly), a corrupt frame is re-signalled rather than
// tearing the link down, and Close drains parked and buffered frames
// deterministically before any connection is torn down.
type Relay struct {
	listener transport.Listener
	dial     func() (transport.Conn, error)
	window   time.Duration

	mu     sync.Mutex   // guards closed, links, and live
	closed bool         // guarded by mu
	links  []*relayLink // guarded by mu
	live   int          // guarded by mu — links with both legs still up
	wg     sync.WaitGroup

	gather gatherer
	kick   chan struct{} // wakes the flusher (coalescing, capacity 1)
	done   chan struct{}

	// Observability handles, resolved once in NewRelayWith.
	obs        *obs.Obs
	cGathers   *obs.Counter
	cGathered  *obs.Counter
	cDialErrs  *obs.Counter
	cCorruptFw *obs.Counter
}

// relayLink is one vehicle's pair of legs through the relay.
type relayLink struct {
	down transport.Conn
	up   transport.Conn
	// wire is the revision negotiated by the fusion centre's Setup (0
	// until seen); the upstream pipe reads it to decide gather
	// eligibility.
	wire atomic.Int32
	// dead flips once when either pipe exits, so the live-link count
	// drops exactly once per link.
	dead atomic.Bool
}

// parkedUpload is one upload waiting in the gatherer, remembering its
// own upstream leg as the fallback carrier.
type parkedUpload struct {
	u  *protocol.Upload
	up transport.Conn
}

// gatherer accumulates the shard's uploads between flushes.
type gatherer struct {
	mu      sync.Mutex     // guards pending
	pending []parkedUpload // guarded by mu
}

// defaultGatherWindow bounds how long a parked upload may wait for the
// rest of its shard before being flushed anyway (stragglers behind the
// relay must not stall the uploads that did arrive).
const defaultGatherWindow = 2 * time.Millisecond

// RelayConfig parameterises an aggregation-tree relay.
type RelayConfig struct {
	// Listener accepts vehicle (downstream) connections.
	Listener transport.Listener
	// Dial opens one upstream connection to the fusion centre per
	// vehicle.
	Dial func() (transport.Conn, error)
	// GatherWindow bounds how long a parked upload waits for the rest of
	// the shard before flushing anyway (default 2 ms; a full shard
	// flushes immediately). Negative disables gathering entirely.
	GatherWindow time.Duration
	// Obs attaches relay.* counters and events; nil disables.
	Obs *obs.Obs
}

// NewRelay wires a listener for vehicle connections to a dialer for
// upstream fusion-centre connections with default gathering.
func NewRelay(listener transport.Listener, dial func() (transport.Conn, error)) (*Relay, error) {
	return NewRelayWith(RelayConfig{Listener: listener, Dial: dial})
}

// NewRelayWith builds a relay from the full configuration.
func NewRelayWith(cfg RelayConfig) (*Relay, error) {
	if cfg.Listener == nil {
		return nil, fmt.Errorf("node: relay listener required")
	}
	if cfg.Dial == nil {
		return nil, fmt.Errorf("node: relay dialer required")
	}
	if cfg.GatherWindow == 0 {
		cfg.GatherWindow = defaultGatherWindow
	}
	r := &Relay{
		listener: cfg.Listener,
		dial:     cfg.Dial,
		window:   cfg.GatherWindow,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	if cfg.Obs.Enabled() {
		r.obs = cfg.Obs
		r.cGathers = cfg.Obs.Counter("relay.gathers")
		r.cGathered = cfg.Obs.Counter("relay.gathered_uploads")
		r.cDialErrs = cfg.Obs.Counter("relay.dial_errors")
		r.cCorruptFw = cfg.Obs.Counter("relay.corrupt_forwarded")
	}
	return r, nil
}

// Serve accepts and proxies vehicle connections until the listener
// closes. An upstream dial failure is not fatal: the affected vehicle's
// connection is closed (its retry path dials the fusion centre directly)
// and the relay keeps serving its remaining shard.
func (r *Relay) Serve() error {
	r.wg.Add(1)
	go r.flusher()
	for {
		down, err := r.listener.Accept()
		if err != nil {
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("node: relay accept: %w", err)
		}
		up, err := r.dial()
		if err != nil {
			_ = down.Close()
			if r.obs != nil {
				r.cDialErrs.Inc()
				r.obs.Emit("relay.dial_error", obs.F("error", err.Error()))
			}
			continue
		}
		link := &relayLink{down: down, up: up}
		r.mu.Lock()
		if r.closed {
			// Close already snapshotted links and may be in wg.Wait: adding
			// here would race it. Drop the late pair instead.
			r.mu.Unlock()
			_ = down.Close()
			_ = up.Close()
			return nil
		}
		r.links = append(r.links, link)
		r.live++
		r.wg.Add(2)
		r.mu.Unlock()
		go r.pipe(link, down, up, true)
		go r.pipe(link, up, down, false)
	}
}

// retire marks a link dead (once) and nudges the flusher so uploads
// parked behind the vanished shard member do not wait for it.
func (r *Relay) retire(link *relayLink) {
	if link.dead.CompareAndSwap(false, true) {
		r.mu.Lock()
		r.live--
		r.mu.Unlock()
		r.nudge()
	}
}

// nudge wakes the flusher without blocking (the channel coalesces).
func (r *Relay) nudge() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// pipe forwards messages one way until either side closes. In the
// upstream direction, uploads on revision-5 legs are parked in the
// shared gatherer instead of being forwarded frame-for-frame.
func (r *Relay) pipe(link *relayLink, from, to transport.Conn, upstream bool) {
	defer r.wg.Done()
	defer r.retire(link)
	for {
		m, err := from.Recv()
		if err != nil {
			if errors.Is(err, protocol.ErrCorruptFrame) {
				// The stream survives a corrupt frame (transport resyncs on
				// the next length prefix). Re-signal the corruption instead
				// of swallowing it, so end-to-end retransmit semantics hold
				// across the relay; a fabric that cannot forge corruption
				// just drops the frame, which times out identically.
				if f, ok := to.(transport.Faulter); ok {
					if f.SendCorrupt(&protocol.Message{Error: &protocol.Error{Reason: "relayed corrupt frame"}}) == nil {
						_ = transport.Flush(to)
						if r.obs != nil {
							r.cCorruptFw.Inc()
							r.obs.Emit("relay.corrupt_forward", obs.F("upstream", upstream))
						}
					}
				}
				continue
			}
			_ = to.Close()
			return
		}
		if m.Setup != nil {
			// The fusion centre just told this vehicle which revision its
			// connection speaks. Adopt it on both legs so forwarded bulk
			// frames re-encode exactly as negotiated end to end — without
			// this, a v3 vehicle's binary upload would be rejected by the
			// relay's own decoder, still at the revision-2 default.
			v := m.Setup.WireVersion
			if v < minWireVersion {
				v = minWireVersion
			}
			transport.SetWireVersion(from, v)
			transport.SetWireVersion(to, v)
			link.wire.Store(int32(v))
		}
		if upstream && m.Upload != nil && r.window >= 0 &&
			int(link.wire.Load()) >= protocol.FleetVersion {
			r.park(m.Upload, link.up)
			if !transport.Pending(from) {
				r.maybeFlush(false)
			}
			continue
		}
		if err := to.Send(m); err != nil {
			_ = from.Close()
			return
		}
		if !transport.Pending(from) {
			// Flush only once the inbound buffer drains: a round's upload
			// fan-in coalesces into as few upstream writes as the burst
			// allows instead of one syscall per forwarded frame.
			if err := transport.Flush(to); err != nil {
				_ = from.Close()
				return
			}
		}
	}
}

// park adds one upload to the gatherer and wakes the flusher.
func (r *Relay) park(u *protocol.Upload, up transport.Conn) {
	r.gather.mu.Lock()
	r.gather.pending = append(r.gather.pending, parkedUpload{u: u, up: up})
	r.gather.mu.Unlock()
	r.nudge()
}

// flusher drives the gather window: a full shard flushes immediately
// (maybeFlush from the parking pipe already handled the common case);
// a partial one flushes when the window expires, so a straggling or
// vanished shard member never stalls the uploads that did arrive.
func (r *Relay) flusher() {
	defer r.wg.Done()
	// One window timer for the relay's lifetime; timer is its channel
	// while a partial shard is waiting on it and nil otherwise.
	window := time.NewTimer(r.window)
	defer window.Stop()
	var timer <-chan time.Time
	for {
		select {
		case <-r.done:
			return
		case <-r.kick:
			if r.maybeFlush(false) {
				timer = nil
			} else if r.pendingCount() > 0 && timer == nil {
				rearm(window, r.window)
				timer = window.C
			}
		case <-timer:
			timer = nil
			r.maybeFlush(true)
		}
	}
}

// pendingCount reports how many uploads are parked.
func (r *Relay) pendingCount() int {
	r.gather.mu.Lock()
	defer r.gather.mu.Unlock()
	return len(r.gather.pending)
}

// maybeFlush sends the parked uploads upstream when the shard is
// complete (every live link contributed) or when forced (window expiry,
// shutdown). Reports whether the gatherer is now empty.
func (r *Relay) maybeFlush(force bool) bool {
	r.mu.Lock()
	target := r.live
	r.mu.Unlock()
	r.gather.mu.Lock()
	if len(r.gather.pending) == 0 {
		r.gather.mu.Unlock()
		return true
	}
	if !force && len(r.gather.pending) < target {
		r.gather.mu.Unlock()
		return false
	}
	batch := r.gather.pending
	r.gather.pending = nil
	r.gather.mu.Unlock()
	r.sendBatch(batch)
	return true
}

// sendBatch forwards one gathered batch: a single upload goes out as the
// plain frame it arrived as; several combine into one Gather frame on
// the first upload's upstream leg. If that leg is gone, each remaining
// upload falls back to its own leg — a vehicle whose leg also died is
// indistinguishable from a crashed vehicle, which the fusion centre's
// straggler handling already covers.
func (r *Relay) sendBatch(batch []parkedUpload) {
	if len(batch) == 1 {
		p := batch[0]
		if err := sendFlush(p.up, &protocol.Message{Upload: p.u}); err != nil {
			_ = p.up.Close()
		}
		return
	}
	uploads := make([]protocol.Upload, len(batch))
	for i, p := range batch {
		uploads[i] = *p.u
	}
	err := sendFlush(batch[0].up, &protocol.Message{Gather: &protocol.Gather{Uploads: uploads}})
	if err == nil {
		if r.obs != nil {
			r.cGathers.Inc()
			r.cGathered.Add(int64(len(batch)))
			r.obs.Emit("relay.gather", obs.F("uploads", len(batch)))
		}
		return
	}
	_ = batch[0].up.Close()
	for _, p := range batch[1:] {
		if err := sendFlush(p.up, &protocol.Message{Upload: p.u}); err != nil {
			_ = p.up.Close()
		}
	}
}

// Close stops accepting and tears down every proxied connection, first
// draining the gatherer and deterministically flushing every leg's send
// buffer — frames the relay accepted are on the wire before any
// connection is torn down, rather than best-effort lost in the close
// race.
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	links := append([]*relayLink(nil), r.links...)
	r.mu.Unlock()
	err := r.listener.Close()
	// Drain parked uploads before any leg closes.
	r.maybeFlush(true)
	for _, link := range links {
		_ = transport.Flush(link.up)
		_ = transport.Flush(link.down)
	}
	close(r.done)
	for _, link := range links {
		_ = link.up.Close()
		_ = link.down.Close()
	}
	r.wg.Wait()
	return err
}
