package node

import (
	"errors"
	"fmt"
	"sync"

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
// The relay is a transparent pipe: every frame is forwarded as it
// arrived, on the link it arrived on, so the fusion centre sees one
// connection per vehicle exactly as if the vehicle had dialled it. The
// decoder needs every vehicle's evaluation individually (PAPER.md eq. 6),
// so there is nothing a relay could reduce; what it does is coalesce —
// a forwarded burst is flushed once the inbound buffer drains (Pending),
// not once per frame. A malicious relay is equivalent to a lossy or
// corrupting channel on its links, which the verification channel
// already covers.
//
// Failure degrades, never cascades: an upstream dial failure closes that
// one vehicle's connection (the vehicle's retry logic then dials the
// fusion centre directly), a corrupt frame is re-signalled rather than
// tearing the link down, and Close flushes every leg's send buffer
// before any connection is torn down.
type Relay struct {
	listener transport.Listener
	dial     func() (transport.Conn, error)

	mu     sync.Mutex   // guards closed and links
	closed bool         // guarded by mu
	links  []*relayLink // guarded by mu
	wg     sync.WaitGroup

	// Observability handles, resolved once in NewRelayWith.
	obs        *obs.Obs
	cLinks     *obs.Counter
	cDialErrs  *obs.Counter
	cCorruptFw *obs.Counter
}

// relayLink is one vehicle's pair of legs through the relay.
type relayLink struct {
	down transport.Conn
	up   transport.Conn
}

// RelayConfig parameterises a relay.
type RelayConfig struct {
	// Listener accepts vehicle (downstream) connections.
	Listener transport.Listener
	// Dial opens one upstream connection to the fusion centre per
	// vehicle.
	Dial func() (transport.Conn, error)
	// Obs attaches relay.* counters and events; nil disables.
	Obs *obs.Obs
}

// NewRelayWith builds a relay that wires a listener for vehicle
// connections to a dialer for upstream fusion-centre connections.
func NewRelayWith(cfg RelayConfig) (*Relay, error) {
	if cfg.Listener == nil {
		return nil, fmt.Errorf("node: relay listener required")
	}
	if cfg.Dial == nil {
		return nil, fmt.Errorf("node: relay dialer required")
	}
	r := &Relay{listener: cfg.Listener, dial: cfg.Dial}
	if cfg.Obs.Enabled() {
		r.obs = cfg.Obs
		r.cLinks = cfg.Obs.Counter("relay.links")
		r.cDialErrs = cfg.Obs.Counter("relay.dial_errors")
		r.cCorruptFw = cfg.Obs.Counter("relay.corrupt_forwarded")
	}
	return r, nil
}

// Serve accepts and proxies vehicle connections until the listener
// closes. An upstream dial failure is not fatal: the affected vehicle's
// connection is closed (its retry path dials the fusion centre directly)
// and the relay keeps serving its remaining links.
func (r *Relay) Serve() error {
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
		r.mu.Lock()
		if r.closed {
			// Close already snapshotted links and may be in wg.Wait: adding
			// here would race it. Drop the late pair instead.
			r.mu.Unlock()
			_ = down.Close()
			_ = up.Close()
			return nil
		}
		r.links = append(r.links, &relayLink{down: down, up: up})
		r.wg.Add(2)
		r.mu.Unlock()
		if r.obs != nil {
			r.cLinks.Inc()
			r.obs.Emit("relay.link")
		}
		go r.pipe(down, up, true)
		go r.pipe(up, down, false)
	}
}

// pipe forwards messages one way until either side closes.
func (r *Relay) pipe(from, to transport.Conn, upstream bool) {
	defer r.wg.Done()
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

// Close stops accepting and tears down every proxied connection, first
// flushing every leg's send buffer — frames the relay accepted are on
// the wire before any connection is torn down, rather than best-effort
// lost in the close race.
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
	for _, link := range links {
		_ = transport.Flush(link.up)
		_ = transport.Flush(link.down)
	}
	for _, link := range links {
		_ = link.up.Close()
		_ = link.down.Close()
	}
	r.wg.Wait()
	return err
}
