package node

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// FleetConfig parameterises a multi-session fusion centre (DESIGN §16).
type FleetConfig struct {
	// Sessions maps session ID to that session's fusion-centre config.
	// Every session runs its own Server — own scheme, own model, own
	// round engine — behind the one shared listener.
	Sessions map[string]ServerConfig
	// DefaultSession names the session joined by a hello without a
	// session ID. Empty means such hellos are rejected.
	DefaultSession string
	// MaxConns is the global connection budget. The fleet reserves it in
	// session-sized chunks: a session only begins gathering connections
	// once MaxConns has room for its full vehicle complement, so a
	// half-gathered session can never starve the sessions ahead of it
	// into a deadlock. 0 disables the budget.
	MaxConns int
	// QueueDepth bounds the admission queue: connections whose session
	// holds no budget reservation park here (answered with an explicit
	// Admission{Queued}) until a completing session frees its chunk.
	// 0 disables queueing — such connections are rejected with the
	// retry hint instead.
	QueueDepth int
	// HandshakeTimeout bounds how long an accepted connection may sit
	// silent before its hello arrives (default 10 s) — a dialer that
	// never speaks cannot pin an accept slot.
	HandshakeTimeout time.Duration
	// Obs attaches the observability layer: fleet.* counters, gauges and
	// events, and transport.Instrument on every accepted connection. It is
	// inherited by every session whose ServerConfig.Obs is nil, and its
	// clock stamps each hello's arrival, so a session with an Obs of its
	// own must share that clock.
	Obs *obs.Obs
}

// SessionResult is one session's outcome after the fleet finishes.
type SessionResult struct {
	ID     string
	Report *Report
	Err    error
	// Shared is the session's model, final once Report is set.
	Shared *nn.Network
}

// sessionState is the lifecycle of one fleet session.
type sessionState int

const (
	// sessionFilling: waiting for the full vehicle complement.
	sessionFilling sessionState = iota
	// sessionRunning: Server.Run is live; new conns are rejoins.
	sessionRunning
	// sessionDone: finished (or failed); reconnects answered Finished.
	sessionDone
)

func (s sessionState) String() string {
	switch s {
	case sessionFilling:
		return "gathering"
	case sessionRunning:
		return "running"
	case sessionDone:
		return "done"
	}
	return "unknown"
}

// fleetSession is one session's mutable record. All fields below the
// config are guarded by the owning Fleet's mu.
type fleetSession struct {
	id     string
	srv    *Server
	expect int // vehicle complement (Scheme.NumVehicles)

	state    sessionState // mutable only under the owning Fleet's mu
	reserved bool         // holds a MaxConns chunk; owned by the Fleet's mu
	hellos   []hello      // latest connection per vehicle ID (conn nil = none yet); owned by the Fleet's mu
	seated   int          // vehicles with a connection; owned by the Fleet's mu
	report   *Report      // set at completion under the Fleet's mu
	err      error        // set at completion under the Fleet's mu
}

// pendingConn is a handshaked connection parked in the admission queue.
// answered is closed once the parking admit call has sent the peer its
// Admission{Queued}; whoever takes the entry off the queue (drainQueue,
// Close) waits on it first, so the next frame on the connection — a
// Setup once it is seated, or a rejection — can never overtake that
// answer, while the send itself still happens outside mu.
type pendingConn struct {
	hello
	answered chan struct{}
}

// Fleet runs many concurrent FL sessions behind one listener: session
// routing keyed off the Hello handshake, admission control with explicit
// queue/reject answers, and a global connection budget reserved in
// session-sized chunks so a slow session cannot starve its neighbours
// (DESIGN §16).
type Fleet struct {
	cfg FleetConfig
	ids []string // session IDs, sorted once for deterministic sweeps

	mu        sync.Mutex // guards sessions' mutable fields, listener, committed, queue, closed, remaining, and the ledger tallies
	sessions  map[string]*fleetSession
	listener  transport.Listener // guarded by mu; set by Serve
	committed int                // guarded by mu — budget slots reserved by sessions
	queue     []pendingConn      // guarded by mu — bounded admission queue
	closed    bool               // guarded by mu
	serving   bool               // guarded by mu — Serve is single-shot
	remaining int                // guarded by mu — sessions not yet done

	// Ledger tallies, guarded by mu; mirrored to the counters below so
	// Status works with observability disabled.
	admitted, rejected, queuedTotal int

	wg sync.WaitGroup

	// Observability handles, resolved once in NewFleet.
	obs        *obs.Obs
	cAdmitted  *obs.Counter
	cRejected  *obs.Counter
	cQueued    *obs.Counter
	cStarted   *obs.Counter
	cDone      *obs.Counter
	cHandshake *obs.Counter
	gLive      *obs.Gauge
	gActive    *obs.Gauge
	gQueue     *obs.Gauge
}

// NewFleet validates the topology and builds every session's Server up
// front, so configuration errors surface before the listener opens.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Sessions) == 0 {
		return nil, fmt.Errorf("node: fleet needs at least one session")
	}
	if cfg.DefaultSession != "" {
		if _, ok := cfg.Sessions[cfg.DefaultSession]; !ok {
			return nil, fmt.Errorf("node: default session %q not configured", cfg.DefaultSession)
		}
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("node: queue depth %d must be >= 0", cfg.QueueDepth)
	}
	ids := make([]string, 0, len(cfg.Sessions))
	for id := range cfg.Sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	f := &Fleet{
		cfg:       cfg,
		ids:       ids,
		sessions:  make(map[string]*fleetSession, len(ids)),
		remaining: len(ids),
	}
	for _, id := range ids {
		scfg := cfg.Sessions[id]
		if scfg.Obs == nil {
			scfg.Obs = cfg.Obs
		}
		srv, err := NewServer(scfg)
		if err != nil {
			return nil, fmt.Errorf("node: session %q: %w", id, err)
		}
		expect := scfg.Scheme.NumVehicles
		if cfg.MaxConns > 0 && expect > cfg.MaxConns {
			return nil, fmt.Errorf("node: session %q needs %d connections, budget is %d", id, expect, cfg.MaxConns)
		}
		f.sessions[id] = &fleetSession{
			id:     id,
			srv:    srv,
			expect: expect,
			hellos: make([]hello, expect),
		}
	}
	if cfg.Obs.Enabled() {
		f.obs = cfg.Obs
		f.cAdmitted = cfg.Obs.Counter("fleet.admitted", obs.CountOf("fleet.admit"))
		f.cRejected = cfg.Obs.Counter("fleet.rejected", obs.CountOf("fleet.reject"))
		f.cQueued = cfg.Obs.Counter("fleet.queued", obs.CountOf("fleet.queue"))
		f.cStarted = cfg.Obs.Counter("fleet.sessions_started", obs.CountOf("fleet.session_start"))
		f.cDone = cfg.Obs.Counter("fleet.sessions_done", obs.CountOf("fleet.session_done"))
		f.cHandshake = cfg.Obs.Counter("fleet.handshake_fails", obs.CountOf("fleet.handshake_fail"))
		f.gLive = cfg.Obs.Gauge("fleet.live_conns")
		f.gActive = cfg.Obs.Gauge("fleet.active_sessions")
		f.gQueue = cfg.Obs.Gauge("fleet.queue_depth")
	}
	return f, nil
}

// Serve accepts and routes connections until every session completes (it
// then closes the listener itself) or Close is called. Each accepted
// connection is instrumented under Obs and handshakes on its own
// goroutine under HandshakeTimeout, so a silent dialer never blocks the
// accept loop. Serve blocks until the fleet is fully drained; it is
// single-shot.
func (f *Fleet) Serve(l transport.Listener) error {
	f.mu.Lock()
	if f.serving {
		f.mu.Unlock()
		return fmt.Errorf("node: fleet already serving")
	}
	if f.closed {
		f.mu.Unlock()
		return fmt.Errorf("node: fleet closed")
	}
	f.serving = true
	f.listener = l
	f.mu.Unlock()
	for n := 0; ; n++ {
		conn, err := l.Accept()
		if err != nil {
			break
		}
		// Labelled by accept order until the session names it after its
		// vehicle.
		conn = transport.Instrument(conn, f.cfg.Obs, fmt.Sprintf("conn-%d", n))
		f.wg.Add(1)
		go f.handshake(conn)
	}
	f.wg.Wait()
	f.drainQueue()
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if !closed {
		return fmt.Errorf("node: fleet listener failed")
	}
	return nil
}

// handshake reads one connection's hello under the timeout, stamps its
// arrival, and admits it. The fleet reads each hello once: the session
// gets it, stamp included, with the connection.
func (f *Fleet) handshake(conn transport.Conn) {
	defer f.wg.Done()
	type helloResult struct {
		h   hello
		err error
	}
	ch := make(chan helloResult, 1)
	go func() {
		h, err := recvHello(conn)
		ch <- helloResult{hello{conn: conn, msg: h, ns: int64(f.cfg.Obs.Now())}, err}
	}()
	timeout := time.NewTimer(f.cfg.HandshakeTimeout)
	defer timeout.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			f.noteHandshakeFail(r.err)
			_ = conn.Close()
			return
		}
		f.admit(r.h)
	case <-timeout.C:
		// Closing the conn unblocks the reader goroutine's Recv.
		f.noteHandshakeFail(fmt.Errorf("node: hello timeout"))
		_ = conn.Close()
	}
}

func (f *Fleet) noteHandshakeFail(err error) {
	if f.obs == nil {
		return
	}
	f.cHandshake.Inc()
	f.obs.Emit("fleet.handshake_fail", obs.F("error", err.Error()))
}

// admitDecision is what admit resolved to while holding the lock; the
// I/O that answers the peer happens after release so a slow connection
// never stalls the fleet.
type admitDecision int

const (
	decideDrop admitDecision = iota
	decideReject
	decideQueue
	decideFinished
	decideSeat
	decideRejoin
)

// admit routes a handshaked connection: to its session (gathering or as
// a rejoin), into the admission queue, or to an explicit rejection. It
// re-runs for queued connections when a completing session frees budget.
func (f *Fleet) admit(a hello) {
	conn, h := a.conn, a.msg
	f.mu.Lock()
	id := h.SessionID
	if id == "" {
		id = f.cfg.DefaultSession
	}
	sess := f.sessions[id]
	decision := decideDrop
	reason := ""
	retry := false
	finRounds := 0
	var start *fleetSession
	var evicted transport.Conn
	var answered chan struct{}
	switch {
	case sess == nil:
		decision, reason = decideReject, fmt.Sprintf("unknown session %q", id)
	case sess.state == sessionDone:
		// Even once the fleet shuts down: a redial into a finished session
		// is told so, and its vehicle stops.
		decision = decideFinished
		if sess.report != nil {
			finRounds = sess.report.Rounds
		}
	case f.closed:
		decision, reason = decideReject, "fleet shutting down"
	case h.VehicleID < 0 || h.VehicleID >= sess.expect:
		decision, reason = decideReject, fmt.Sprintf("vehicle ID %d out of range for session %q", h.VehicleID, id)
	case sess.state == sessionRunning:
		decision = decideRejoin
	default: // gathering
		if sess.hellos[h.VehicleID].conn != nil {
			decision, reason = decideReject, fmt.Sprintf("vehicle %d already connected to session %q", h.VehicleID, id)
			break
		}
		// Commit the session's full connection complement against the
		// global budget in one chunk. Chunked reservation is what makes
		// admission deadlock-free: gathering sessions never hold partial
		// claims that starve each other, so every reserved session can
		// always fill and run to completion.
		if !sess.reserved && f.cfg.MaxConns > 0 && f.committed+sess.expect > f.cfg.MaxConns {
			if len(f.queue) < f.cfg.QueueDepth {
				answered = make(chan struct{})
				f.queue = append(f.queue, pendingConn{hello: a, answered: answered})
				f.queuedTotal++
				decision = decideQueue
			} else {
				decision, reason, retry = decideReject, "fleet at connection budget", true
			}
			break
		}
		if !sess.reserved {
			sess.reserved = true
			f.committed += sess.expect
		}
		decision = decideSeat
		f.admitted++
		sess.hellos[h.VehicleID] = a
		sess.seated++
		if sess.seated == sess.expect {
			sess.state = sessionRunning
			start = sess
		}
	}
	if decision == decideRejoin {
		f.admitted++
		// Close the replaced conn ourselves: the engine's rejoin handler
		// also does, but a rejoin that races session completion is answered
		// Finished without ever reaching it. The table keeps the new conn,
		// so the session's completion closes it whatever became of it.
		evicted = sess.hellos[h.VehicleID].conn
		sess.hellos[h.VehicleID] = a
	}
	if decision == decideReject {
		f.rejected++
	}
	f.updateGauges(len(f.queue))
	f.mu.Unlock()

	switch decision {
	case decideReject:
		f.sendReject(conn, reason, retry)
		if f.obs != nil {
			f.cRejected.Inc()
			f.obs.Emit("fleet.reject",
				obs.F("session", id),
				obs.F("vehicle", h.VehicleID),
				obs.F("reason", reason),
				obs.F("retry", retry))
		}
	case decideQueue:
		if f.obs != nil {
			f.cQueued.Inc()
			f.obs.Emit("fleet.queue", obs.F("session", id), obs.F("vehicle", h.VehicleID))
		}
		_ = sendFlush(conn, &protocol.Message{Admission: &protocol.Admission{
			Queued: true, Reason: "fleet at connection budget",
		}})
		close(answered)
	case decideFinished:
		sendFinished(conn, finRounds)
	case decideSeat, decideRejoin:
		if f.obs != nil {
			f.cAdmitted.Inc()
			f.obs.Emit("fleet.admit",
				obs.F("session", id),
				obs.F("vehicle", h.VehicleID),
				obs.F("version", protocol.Version),
				obs.F("rejoin", decision == decideRejoin))
		}
		if decision == decideRejoin {
			_ = evicted.Close()
			sess.srv.enqueue(a)
		}
		if start != nil {
			f.startSession(start)
		}
	case decideDrop:
		_ = conn.Close()
	}
}

// sendReject answers a rejected handshake with an Admission carrying the
// reason and the retry hint, then closes the connection.
func (f *Fleet) sendReject(conn transport.Conn, reason string, retry bool) {
	_ = sendFlush(conn, &protocol.Message{Admission: &protocol.Admission{Reason: reason, Retry: retry}})
	_ = conn.Close()
}

// startSession runs a full session on its own goroutine, handing it the
// hellos the fleet read, and settles the fleet ledger when it returns.
func (f *Fleet) startSession(sess *fleetSession) {
	f.mu.Lock()
	hellos := slices.Clone(sess.hellos)
	f.mu.Unlock()
	if f.obs != nil {
		f.cStarted.Inc()
		f.obs.Emit("fleet.session_start",
			obs.F("session", sess.id),
			obs.F("vehicles", sess.expect))
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		report, err := sess.srv.run(hellos)
		f.mu.Lock()
		sess.state = sessionDone
		sess.report, sess.err = report, err
		// Every connection the session was handed, rejoins included, is
		// closed here, so no vehicle of a failed run is left waiting for a
		// Setup.
		open := slices.Clone(sess.hellos)
		f.mu.Unlock()
		for _, h := range open {
			_ = h.conn.Close()
		}
		f.mu.Lock()
		if sess.reserved {
			sess.reserved = false
			f.committed -= sess.expect
		}
		f.remaining--
		last := f.remaining == 0
		f.updateGauges(len(f.queue))
		f.mu.Unlock()
		if f.obs != nil {
			f.cDone.Inc()
			fields := []obs.Field{obs.F("session", sess.id)}
			if err != nil {
				fields = append(fields, obs.F("error", err.Error()))
			} else {
				fields = append(fields, obs.F("rounds", report.Rounds))
			}
			f.obs.Emit("fleet.session_done", fields...)
		}
		// Freed budget: give parked connections another pass.
		f.drainQueue()
		if last {
			// The fleet shuts its own listener, ending Serve's accept loop.
			_ = f.Close()
		}
	}()
}

// drainQueue re-admits every parked connection once, in queue order.
// Connections whose session still holds no reservation simply park again
// (the queue is bounded, so this converges), and connections for
// completed sessions are answered with Finished. Each entry's Queued
// answer is waited for first: an entry parked moments ago may still be
// having it sent.
func (f *Fleet) drainQueue() {
	f.mu.Lock()
	parked := f.queue
	f.queue = nil
	f.updateGauges(0)
	f.mu.Unlock()
	for _, p := range parked {
		<-p.answered
		f.admit(p.hello)
	}
}

// live counts the connections the fleet holds for sessions not yet done;
// a done session's were closed when it completed. Callers hold mu.
func (f *Fleet) live() int {
	n := 0
	for _, id := range f.ids {
		if sess := f.sessions[id]; sess.state != sessionDone {
			n += sess.seated
		}
	}
	return n
}

// updateGauges refreshes the fleet gauges, queued being the admission
// queue's length; callers hold mu.
func (f *Fleet) updateGauges(queued int) {
	if f.obs == nil {
		return
	}
	f.gLive.Set(int64(f.live()))
	f.gQueue.Set(int64(queued))
	active := 0
	for _, id := range f.ids {
		if f.sessions[id].state == sessionRunning {
			active++
		}
	}
	f.gActive.Set(int64(active))
}

// Close shuts the listener and rejects every parked connection; running
// sessions finish on their own (their connections are already admitted).
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	l := f.listener
	parked := f.queue
	f.queue = nil
	f.updateGauges(0)
	f.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	for _, p := range parked {
		<-p.answered
		f.sendReject(p.conn, "fleet shutting down", true)
	}
	return err
}

// Results returns every session's outcome; sessions still gathering or
// running report a nil Report and nil Err. Keyed by session ID.
func (f *Fleet) Results() map[string]SessionResult {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]SessionResult, len(f.ids))
	for _, id := range f.ids {
		sess := f.sessions[id]
		out[id] = SessionResult{ID: id, Report: sess.report, Err: sess.err, Shared: sess.srv.Shared()}
	}
	return out
}

// FleetSessionStatus is one session's row in the fleet snapshot.
type FleetSessionStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Vehicles  int    `json:"vehicles"`
	Connected int    `json:"connected"`
	Reserved  bool   `json:"reserved"`
	// Engine is the session's live round-engine snapshot (meaningful
	// once the session is running).
	Engine Status `json:"engine"`
}

// FleetStatus is a point-in-time snapshot of the whole fleet, served by
// the debugz introspection plane (/sessionz).
type FleetStatus struct {
	// Live counts the connections held for sessions not yet done,
	// Committed the budget-reserved slots; MaxConns echoes the budget.
	Live      int `json:"live_conns"`
	Committed int `json:"committed_conns"`
	MaxConns  int `json:"max_conns"`
	// Queued is the current admission-queue depth; the ledger tallies
	// below are cumulative.
	Queued      int `json:"queued"`
	Admitted    int `json:"admitted_total"`
	Rejected    int `json:"rejected_total"`
	QueuedTotal int `json:"queued_total"`
	// Sessions lists every session sorted by ID.
	Sessions []FleetSessionStatus `json:"sessions"`
}

// Status returns the fleet snapshot. Safe from any goroutine while the
// fleet serves — the debugz /sessionz handler calls it on HTTP
// goroutines.
func (f *Fleet) Status() FleetStatus {
	f.mu.Lock()
	st := FleetStatus{
		Live:        f.live(),
		Committed:   f.committed,
		MaxConns:    f.cfg.MaxConns,
		Queued:      len(f.queue),
		Admitted:    f.admitted,
		Rejected:    f.rejected,
		QueuedTotal: f.queuedTotal,
	}
	type row struct {
		sess      *fleetSession
		connected int
		state     sessionState
		reserved  bool
	}
	rows := make([]row, 0, len(f.ids))
	for _, id := range f.ids {
		sess := f.sessions[id]
		rows = append(rows, row{sess: sess, connected: sess.seated, state: sess.state, reserved: sess.reserved})
	}
	f.mu.Unlock()
	// Engine snapshots take each Server's own status lock; resolved
	// outside the fleet lock to keep lock ordering trivial.
	for _, r := range rows {
		st.Sessions = append(st.Sessions, FleetSessionStatus{
			ID:        r.sess.id,
			State:     r.state.String(),
			Vehicles:  r.sess.expect,
			Connected: r.connected,
			Reserved:  r.reserved,
			Engine:    r.sess.srv.Status(),
		})
	}
	return st
}
