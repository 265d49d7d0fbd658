// Package node runs L-CoFL as an actual distributed system: a fusion
// centre process and vehicle processes exchanging protocol messages over
// a transport fabric (in-memory or TCP).
//
// The round structure mirrors package fl exactly — broadcast, local
// training (eq. 1), scheme upload, verified aggregation, distillation —
// but each vehicle holds only its own state and the fusion centre only
// the shared model, so the deployment is faithful to Fig. 1: vehicles
// never exchange raw data, and the fusion centre never sees local
// datasets. Each vehicle derives its own Lagrange-encoded share
// (core.Share: one evaluation of the encoding polynomial, nothing that
// grows with V) from the Setup message's seed and its ID, so it matches
// the fusion centre's without shipping any encoding matrices.
//
// The layer is chaos-hardened (DESIGN.md §11): a vehicle that misses a
// round deadline is a straggler, which the coded aggregation already
// tolerates; a corrupted upload frame (protocol.ErrCorruptFrame) prompts
// a bounded re-broadcast and the vehicle resends its cached upload
// without retraining, so recovery is bit-identical to the fault-free
// run; a crashed vehicle may reconnect through Server.Rejoin and resume
// the session; and a round left with fewer uploads than the RS recover
// threshold K degrades gracefully — the model holds still and the round
// is counted in Report.DegradedRounds — instead of failing the session.
package node

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// ServerConfig parameterises the fusion centre.
type ServerConfig struct {
	// FL carries the learning hyperparameters (InputSize, rates, epochs).
	FL fl.Config
	// Scheme carries the L-CoFL coding parameters.
	Scheme core.SchemeConfig
	// RefX is the reference feature set (length a multiple of
	// Scheme.NumBatches).
	RefX [][]float64
	// ActivationCoeffs is the polynomial activation every participant
	// installs (paper §IV Step 2).
	ActivationCoeffs []float64
	// Rounds is the number of global rounds to run.
	Rounds int
	// RoundTimeout bounds how long the fusion centre waits for uploads
	// each round before treating missing vehicles as stragglers
	// (default 30 s).
	RoundTimeout time.Duration
	// WaitBudget sets how many uploads beyond the recover threshold K the
	// engine waits for before closing a round's collection window. 0 (the
	// default) waits for every live vehicle; -1 closes at exactly K; n > 0
	// closes at K+n.
	WaitBudget int
	// Obs attaches the observability layer to the fusion centre and (via
	// Scheme.Obs, unless the caller already set one) to its coding scheme.
	// Nil disables all instrumentation.
	Obs *obs.Obs
}

// maxRetransmits bounds how many times per round a vehicle whose upload
// frame arrived corrupted is prompted (by re-broadcast) to resend it.
const maxRetransmits = 3

// pipelineWindow bounds in-flight rounds for vehicles that fell behind a
// budget close: once a behind vehicle is more than pipelineWindow rounds
// stale, its broadcasts are withheld (latest only) until any upload
// proves it alive, keeping per-vehicle buffered state flat.
const pipelineWindow = 2

// Report summarises a completed distributed session.
type Report struct {
	// Rounds is the number of completed rounds (degraded ones included).
	Rounds int
	// FinalParams is the shared model's final parameter vector.
	FinalParams []float64
	// SuspectedMalicious accumulates every vehicle flagged by the
	// verification channel in any round.
	SuspectedMalicious []int
	// Stragglers counts upload timeouts across all rounds.
	Stragglers int
	// RecvErrors counts per-connection receive failures across all
	// rounds — a vehicle whose connection broke mid-session shows up here
	// (and is treated as dead until it rejoins), not silently as a
	// straggler.
	RecvErrors int
	// CorruptFrames counts frames that failed their checksum
	// (protocol.ErrCorruptFrame) across all connections and rounds.
	CorruptFrames int
	// Retransmits counts corrupt-upload re-broadcast prompts.
	Retransmits int
	// Rejoins counts crashed vehicles revived through Server.Rejoin.
	Rejoins int
	// DegradedRounds counts rounds that ran with fewer than K uploads and
	// therefore skipped aggregation (the model held still).
	DegradedRounds int
}

// Server is the fusion centre.
type Server struct {
	cfg       ServerConfig
	shared    *nn.Network
	scheme    *core.Scheme
	distiller *fl.Distiller // the update step over cfg.RefX, one per session

	// rejoin carries handshaked reconnections into Run's collect loop.
	rejoin chan rejoinReq

	mu        sync.Mutex // guards done and finRounds
	done      bool       // guarded by mu
	finRounds int        // guarded by mu

	statusMu sync.Mutex // guards status
	status   Status     // guarded by statusMu

	// Observability handles, resolved once in NewServer.
	obs         *obs.Obs
	cRecvErrors *obs.Counter
	cStragglers *obs.Counter
	cRoundsDone *obs.Counter
	cCorrupt    *obs.Counter
	cRetransmit *obs.Counter
	cRejoins    *obs.Counter
	cDegraded   *obs.Counter
	cEarlyClose *obs.Counter
}

// rejoinReq is a reconnected, handshaked vehicle awaiting revival.
type rejoinReq struct {
	id      int
	conn    transport.Conn
	helloNs int64 // server clock when the hello arrived
}

// Status is a point-in-time snapshot of the round engine, served live by
// the debugz introspection plane (/roundz). All fields describe the
// moment of the call.
type Status struct {
	// Phase is handshake, collect, aggregate, or done.
	Phase string `json:"phase"`
	// Round is the current (1-based) round; Rounds the configured total.
	Round  int `json:"round"`
	Rounds int `json:"rounds"`
	// RecoverK is the scheme's RS decode threshold K. WaitBudget echoes
	// ServerConfig.WaitBudget in its encoding (0 = wait for all, -1 =
	// close at K); BudgetTarget is the upload count that closes a round
	// early, K + max(WaitBudget, 0), or 0 when waiting for all.
	RecoverK     int `json:"recover_k"`
	WaitBudget   int `json:"wait_budget"`
	BudgetTarget int `json:"budget_target"`
	// Arrived and Outstanding count this round's uploads landed and
	// still owed.
	Arrived     int `json:"arrived"`
	Outstanding int `json:"outstanding"`
	// Behind lists the vehicles outpaced by a budget close, ascending.
	Behind []int `json:"behind,omitempty"`
	// Cumulative recovery tallies, mirroring the Report fields.
	Stragglers     int `json:"stragglers"`
	Rejoins        int `json:"rejoins"`
	DegradedRounds int `json:"degraded_rounds"`
	// TraceID is the session trace (empty with tracing off).
	TraceID string `json:"trace_id,omitempty"`
}

// Status returns the engine snapshot. Safe from any goroutine while Run
// executes — the debugz /roundz handler calls it on HTTP goroutines.
func (s *Server) Status() Status {
	s.statusMu.Lock()
	defer s.statusMu.Unlock()
	st := s.status
	st.Behind = append([]int(nil), s.status.Behind...)
	return st
}

// NewServer builds the shared model and the coding scheme.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("node: rounds %d must be >= 1", cfg.Rounds)
	}
	if len(cfg.ActivationCoeffs) < 2 {
		return nil, fmt.Errorf("node: polynomial activation coefficients required")
	}
	if cfg.RoundTimeout == 0 {
		cfg.RoundTimeout = 30 * time.Second
	}
	if cfg.WaitBudget < -1 {
		return nil, fmt.Errorf("node: wait budget %d outside {-1, 0, 1, ...}", cfg.WaitBudget)
	}
	act := approx.FromPolynomial("wire-poly", poly.NewReal(cfg.ActivationCoeffs...))
	shared, err := nn.New(nn.Config{LayerSizes: []int{cfg.FL.InputSize, 1}, Activation: act, Seed: cfg.FL.Seed})
	if err != nil {
		return nil, fmt.Errorf("node: shared model: %w", err)
	}
	if cfg.Obs.Enabled() && cfg.Scheme.Obs == nil {
		cfg.Scheme.Obs = cfg.Obs
	}
	scheme, err := core.NewScheme(cfg.RefX, cfg.Scheme)
	if err != nil {
		return nil, fmt.Errorf("node: scheme: %w", err)
	}
	distiller, err := fl.NewDistiller(cfg.FL, cfg.RefX)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	return &Server{
		cfg:         cfg,
		shared:      shared,
		scheme:      scheme,
		distiller:   distiller,
		rejoin:      make(chan rejoinReq, 64),
		obs:         cfg.Obs,
		cRecvErrors: cfg.Obs.Counter("node.recv_errors", obs.CountOf("node.recv_error")),
		cStragglers: cfg.Obs.Counter("node.stragglers", obs.CountOf("node.straggler")),
		cRoundsDone: cfg.Obs.Counter("node.rounds", obs.CountOf("node.round")),
		cCorrupt:    cfg.Obs.Counter("node.corrupt_frames", obs.CountOf("node.corrupt_frame")),
		cRetransmit: cfg.Obs.Counter("node.retransmits", obs.CountOf("node.retransmit")),
		cRejoins:    cfg.Obs.Counter("node.rejoins", obs.CountOf("node.rejoin")),
		cDegraded:   cfg.Obs.Counter("node.degraded_rounds", obs.CountOf("node.degraded")),
		cEarlyClose: cfg.Obs.Counter("node.early_closes", obs.CountOf("node.early_close")),
	}, nil
}

// Shared exposes the fusion centre's model (for evaluation after Run).
func (s *Server) Shared() *nn.Network { return s.shared }

// Rejoin hands a reconnected vehicle's fusion-centre-side connection to
// the running session. It returns immediately; the handshake (hello)
// happens on a background goroutine and the revival — Setup resent, the
// current round's broadcast resent if an upload is owed — in Run's
// collect loop. A rejoin arriving after the session finished is answered
// with Finished and closed, so a retrying vehicle terminates cleanly.
func (s *Server) Rejoin(conn transport.Conn) {
	go func() {
		h, err := readHello(conn, s.cfg.Scheme.NumVehicles)
		if err != nil {
			_ = conn.Close()
			return
		}
		helloNs := int64(s.obs.Now())
		transport.SetWireVersion(conn, protocol.Version)
		s.mu.Lock()
		if !s.done {
			select {
			case s.rejoin <- rejoinReq{id: h.VehicleID, conn: conn, helloNs: helloNs}:
				s.mu.Unlock()
				return
			default: // queue full: treat as too-late
			}
		}
		fin := s.finRounds
		s.mu.Unlock()
		sendFinished(conn, fin)
	}()
}

// recvHello consumes and version-checks a peer's opening hello. A peer
// announcing less than protocol.Version — the floor — is answered with an
// Error frame naming the reason before the caller closes the connection,
// so an old build learns why instead of redialling into EOFs. The
// vehicle-ID range is NOT checked here — a fleet routes the hello to a
// session first and validates the ID against that session's scheme (see
// readHello).
func recvHello(conn transport.Conn) (*protocol.Hello, error) {
	m, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("node: hello: %w", err)
	}
	if m.Hello == nil {
		return nil, fmt.Errorf("node: connection opened with %s, want hello", m.Kind())
	}
	if m.Hello.Version < protocol.Version {
		reason := fmt.Sprintf("protocol revision %d too old, need ≥ %d", m.Hello.Version, protocol.Version)
		_ = sendFlush(conn, &protocol.Message{Error: &protocol.Error{Reason: reason}})
		return nil, fmt.Errorf("node: hello refused: %s", reason)
	}
	return m.Hello, nil
}

// sendFinished tells a vehicle the session ended after rounds rounds and
// closes its connection, best effort: the session is over either way.
func sendFinished(conn transport.Conn, rounds int) {
	_ = sendFlush(conn, &protocol.Message{Finished: &protocol.Finished{Rounds: rounds}})
	_ = conn.Close()
}

// readHello is recvHello plus the single-session vehicle-ID range check.
func readHello(conn transport.Conn, vehicles int) (*protocol.Hello, error) {
	h, err := recvHello(conn)
	if err != nil {
		return nil, err
	}
	if id := h.VehicleID; id < 0 || id >= vehicles {
		return nil, fmt.Errorf("node: vehicle ID %d out of range", id)
	}
	return h, nil
}

// result is one event from a connection's receiver goroutine: an upload,
// a corrupt frame (err is protocol.ErrCorruptFrame) or a terminal receive
// error. An upload is attributed to the vehicle that handshaked conn,
// never to the ID it names, and conn lets the engine discard events from
// a connection a rejoin replaced.
type result struct {
	vehicleID int
	conn      transport.Conn
	round     int
	size      int // values the upload carried
	// values is the upload's copy in one of the connection's two buffers,
	// nil unless size is the scheme's upload length (a wrong length is
	// refused unread). The engine hands it back through back once it drops
	// the upload or closes the round it entered.
	values []float64
	back   chan<- []float64
	span   string // propagated upload span ID ("" when absent)
	err    error
}

// release hands the upload's buffer back to its connection's receiver.
// It never blocks: the receiver's channel has room for both its buffers.
func (u *result) release() {
	if u.values != nil {
		u.back <- u.values
		u.values = nil
	}
}

// vehicle is the engine's record of one vehicle, kept in a slice indexed
// by ID: every sweep runs in ascending ID order, so send order — which
// shapes the wire trace and straggler telemetry — is the same every run
// (DESIGN §8).
type vehicle struct {
	conn     transport.Conn // nil once the engine dropped a malformed peer
	helloNs  int64          // server clock when its hello arrived
	dead     bool           // connection lost; skipped until it rejoins
	owes     bool           // this round's upload is outstanding
	behind   bool           // outpaced by a budget close
	withheld bool           // this round's broadcast is held back
	lastSeen int            // latest round it uploaded for
	retrans  int            // corrupt-upload prompts this round
	upload   result         // this round's admitted upload (values nil = none)
	flagged  bool           // named by the verification channel in some round
}

// engine is one Run's state: the per-vehicle table, the session's
// constants, and the current round. Only Run's goroutine touches it; the
// receivers it starts only send on results, and stop once done closes.
type engine struct {
	s        *Server
	traced   bool
	trace    uint64 // the session trace every process joins; 0 untraced
	traceHex string
	k        int // the scheme's recover threshold K
	target   int // arrivals that close a round early (0 = wait for all)
	setup    protocol.Setup
	veh      []vehicle
	rows     [][]float64 // the admitted uploads handed to the close, by ID
	results  chan result
	done     chan struct{} // closed when Run returns
	deadline *time.Timer   // one for the session, re-armed every round
	report   Report

	// The current round. Its broadcast is one message, parameter vector
	// included, rewritten every round: a send copies what it needs.
	round       int
	bc          protocol.Message
	bcBody      protocol.Broadcast
	params      []float64
	ctx         obs.SpanContext
	span        obs.Span
	sink        fl.UploadSink
	outstanding int // vehicles that owe an upload
	arrived     int
	closedBy    string
	overlapNs   int64
}

// Run drives the session over the given connections (one per vehicle).
// It handshakes and configures every vehicle, runs each round as a
// broadcast, a collect and a close (DESIGN §14.5), and sends Finished.
// Run blocks until the session completes.
func (s *Server) Run(conns []transport.Conn) (*Report, error) {
	e, err := s.handshake(conns)
	if err != nil {
		return nil, err
	}
	defer e.deadline.Stop()
	defer close(e.done)
	for e.round = 1; e.round <= s.cfg.Rounds; e.round++ {
		if err := e.broadcast(); err != nil {
			return nil, err
		}
		e.collect()
		if err := e.close(); err != nil {
			return nil, err
		}
	}
	return e.finish(), nil
}

// handshake seats every connection in the table by the vehicle ID its
// hello names, sends each vehicle its Setup and starts its receiver.
func (s *Server) handshake(conns []transport.Conn) (*engine, error) {
	v := s.cfg.Scheme.NumVehicles
	if len(conns) != v {
		return nil, fmt.Errorf("node: got %d connections, scheme expects %d vehicles", len(conns), v)
	}
	e := &engine{
		s:      s,
		traced: s.obs.TraceEnabled(),
		k:      s.scheme.RecoverThreshold(),
		veh:    make([]vehicle, v),
		rows:   make([][]float64, v),
		// Sized so a receiver never blocks while the engine is busy: a
		// vehicle has at most pipelineWindow+1 rounds in flight, each
		// yielding one upload and up to maxRetransmits+1 corrupt frames,
		// and its one terminal error takes the last slot.
		results: make(chan result, v*(pipelineWindow+1)*(maxRetransmits+2)),
		done:    make(chan struct{}),
		setup: protocol.Setup{
			WireVersion:      protocol.Version,
			InputSize:        s.cfg.FL.InputSize,
			LocalEpochs:      s.cfg.FL.LocalEpochs,
			LocalRate:        s.cfg.FL.LocalRate,
			ActivationCoeffs: s.cfg.ActivationCoeffs,
			RefX:             s.cfg.RefX,
			SchemeVehicles:   s.cfg.Scheme.NumVehicles,
			SchemeBatches:    s.cfg.Scheme.NumBatches,
			SchemeDegree:     s.cfg.Scheme.Degree,
			SchemeSeed:       s.cfg.Scheme.Seed,
		},
	}
	if s.cfg.WaitBudget != 0 {
		e.target = e.k + max(s.cfg.WaitBudget, 0)
	}
	if e.traced {
		// Derived from the scheme seed (DESIGN §15), so fusion centre and
		// vehicles agree on the trace before Setup announces it.
		e.trace = obs.TraceIDFromSeed(s.cfg.Scheme.Seed)
		e.traceHex = obs.FormatID(e.trace)
		e.setup.TraceID = e.traceHex
	}
	s.statusMu.Lock()
	s.status = Status{Phase: "handshake", Rounds: s.cfg.Rounds, RecoverK: e.k,
		WaitBudget: s.cfg.WaitBudget, BudgetTarget: e.target, TraceID: e.traceHex}
	s.statusMu.Unlock()
	for i, conn := range conns {
		h, err := readHello(conn, v)
		if err != nil {
			return nil, fmt.Errorf("node: conn %d: %w", i, err)
		}
		vh := &e.veh[h.VehicleID]
		if vh.conn != nil {
			return nil, fmt.Errorf("node: duplicate vehicle ID %d", h.VehicleID)
		}
		vh.conn = conn
		transport.SetWireVersion(conn, protocol.Version)
		if e.traced {
			// The hello receive time anchors this connection's clock-offset
			// estimate: Setup echoes it beside its own send time, and the
			// vehicle brackets the pair with its clock (DESIGN §15).
			vh.helloNs = int64(s.obs.Now())
			fields := []obs.Field{obs.F("vehicle", h.VehicleID), obs.F("version", protocol.Version), obs.F("trace", e.traceHex)}
			if h.TraceID != "" {
				fields = append(fields, obs.F("peer_trace", h.TraceID))
			}
			s.obs.Emit("node.hello", fields...)
		}
	}
	for id := range e.veh {
		// Deliberately not flushed: on a buffered fabric the Setup
		// coalesces with round 1's broadcast into a single write.
		if err := e.configure(id); err != nil {
			return nil, fmt.Errorf("node: setup to vehicle %d: %w", id, err)
		}
	}
	for id := range e.veh {
		e.receive(id, e.veh[id].conn)
	}
	e.deadline = time.NewTimer(s.cfg.RoundTimeout)
	return e, nil
}

// configure names an instrumented connection after its vehicle, in place
// of the accept-order placeholder, and sends the vehicle its Setup,
// unflushed, stamped with its hello time and the send time for its
// clock-offset estimate.
func (e *engine) configure(id int) error {
	vh := &e.veh[id]
	if sp, ok := vh.conn.(interface{ SetPeer(string) }); ok {
		sp.SetPeer(fmt.Sprintf("vehicle-%d", id))
	}
	su := e.setup
	if e.traced {
		su.HelloNs = vh.helloNs
		su.ClockNs = int64(e.s.obs.Now())
	}
	return vh.conn.Send(&protocol.Message{Setup: &su})
}

// receive starts conn's receiver goroutine. A corrupt frame is
// frame-local (the stream stays in sync), so reading goes on after it;
// any other error, or a message other than an upload, ends the connection.
//
// The upload a Recv returns is valid only until the next Recv, so the
// receiver copies its values into one of two buffers it owns and the
// engine hands each back (result.release) when it drops the upload or
// closes its round. With both buffers out, the receiver waits before it
// reads on: a peer that floods uploads blocks its own goroutine, and what
// the engine holds for it stays at two uploads.
func (e *engine) receive(id int, conn transport.Conn) {
	free := make(chan []float64, 2)
	free <- nil // grown to the upload length on first use
	free <- nil
	want := e.s.scheme.UploadLen()
	go func() {
		for {
			m, err := conn.Recv()
			if err == nil && m.Upload == nil {
				err = fmt.Errorf("unexpected %s", m.Kind())
			}
			if err != nil {
				if !e.deliver(result{vehicleID: id, conn: conn, err: err}) || !errors.Is(err, protocol.ErrCorruptFrame) {
					return
				}
				continue
			}
			up := m.Upload
			r := result{vehicleID: id, conn: conn, round: up.Round, size: len(up.Values), back: free, span: up.SpanID}
			if r.size == want {
				select {
				case buf := <-free:
					r.values = append(buf[:0], up.Values...)
				case <-e.done:
					return
				}
			}
			if !e.deliver(r) {
				return
			}
		}
	}()
}

// deliver passes a receiver's event to the engine; false once the session
// is over and nobody will read it.
func (e *engine) deliver(r result) bool {
	select {
	case e.results <- r:
		return true
	case <-e.done:
		return false
	}
}

// broadcast opens round e.round and sends the model to every live
// vehicle, which then owes the round an upload — except a behind vehicle
// more than pipelineWindow rounds stale: its broadcast is withheld
// (latest only) until an upload proves it alive, so a vanished straggler
// never accumulates frames.
func (e *engine) broadcast() error {
	s := e.s
	// The per-round events are built only when traced: boxing a round
	// number into a field allocates once it passes 255.
	if e.traced {
		s.obs.Emit("node.round_start", obs.F("round", e.round))
		// The round span's ID is derived, not random, so every process
		// computes the same value and the merged timeline can nest
		// vehicle-side spans under it even when a frame carries no context.
		e.ctx = obs.SpanContext{Trace: e.trace, Span: obs.DeriveSpan(e.trace, "node.round", uint64(e.round))}
		e.span = s.obs.Start("node.round", append([]obs.Field{obs.F("round", e.round)}, obs.CtxFields(e.ctx, 0)...)...)
	}
	if err := s.scheme.BeginRound(s.shared); err != nil {
		return fmt.Errorf("node: round %d: %w", e.round, err)
	}
	e.params = append(e.params[:0], s.shared.ParamsView()...)
	e.bcBody = protocol.Broadcast{Round: e.round, Params: e.params}
	if e.traced {
		e.bcBody.TraceID = e.traceHex
		e.bcBody.SpanID = obs.FormatID(e.ctx.Span)
	}
	e.bc = protocol.Message{Broadcast: &e.bcBody}
	e.outstanding, e.arrived, e.closedBy, e.overlapNs = 0, 0, "all", 0
	for id := range e.veh {
		vh := &e.veh[id]
		vh.retrans, vh.owes = 0, false
		if vh.dead {
			continue
		}
		if vh.behind && e.round-vh.lastSeen > pipelineWindow {
			vh.withheld = true
			continue
		}
		// The flush barrier is where a buffered fabric pays its one write;
		// a flush failure is a send failure.
		if err := sendFlush(vh.conn, &e.bc); err != nil {
			vh.dead = true
			continue
		}
		e.setOwes(vh, true)
	}
	return nil
}

// setOwes marks whether a vehicle still owes this round's upload,
// keeping the outstanding count.
func (e *engine) setOwes(vh *vehicle, owes bool) {
	if vh.owes == owes {
		return
	}
	vh.owes = owes
	if owes {
		e.outstanding++
	} else {
		e.outstanding--
	}
}

// kill marks a vehicle dead until it rejoins; it owes nothing meanwhile.
func (e *engine) kill(vh *vehicle) {
	vh.dead = true
	e.setOwes(vh, false)
}

// collect streams the round's uploads into the scheme's incremental
// decoder until nobody alive owes one, the wait budget closes the round
// early, or the deadline passes. Below K the round stays open to the
// deadline even with nothing owed: crashed vehicles get the full window
// to rejoin before the model is held still, so a failure that drops many
// links at once — a crashed access point — cannot burn through every
// remaining round degraded in microseconds.
func (e *engine) collect() {
	e.sink = e.s.scheme.BeginIngest()
	e.publish("collect", true)
	rearm(e.deadline, e.s.cfg.RoundTimeout)
	for e.outstanding > 0 || e.arrived < e.k {
		select {
		case u := <-e.results:
			switch {
			case errors.Is(u.err, protocol.ErrCorruptFrame):
				e.corrupt(u)
			case u.err != nil:
				e.recvError(u, u.err)
			default:
				if e.admit(u) {
					return
				}
			}
		case req := <-e.s.rejoin:
			e.rejoin(req)
		case <-e.deadline.C:
			e.closedBy = "timeout"
			return // stragglers: their uploads stay nil
		}
	}
}

// admit is the one place an upload enters the round. An upload of the
// wrong length, or for a round not yet broadcast, is refused as a receive
// error that also closes the connection. A stale upload, from a round a
// budget close left behind, is proof of life only. An owed upload is
// admitted and streamed into the decoder, and its buffer held until the
// round closes; every other upload's buffer goes back at once. Once the
// arrivals reach the wait budget's target with uploads still owed, admit
// closes the round early (it returns true) and marks the vehicles still
// owing behind.
func (e *engine) admit(u result) bool {
	s := e.s
	vh := &e.veh[u.vehicleID]
	var bad error
	switch {
	case u.size != s.scheme.UploadLen():
		bad = fmt.Errorf("upload of %d values, want %d", u.size, s.scheme.UploadLen())
	case u.round > e.round:
		bad = fmt.Errorf("upload for round %d during round %d", u.round, e.round)
	case u.round < e.round:
		u.release()
		if !vh.dead && vh.conn == u.conn {
			e.alive(vh, u.round)
		}
		return false
	case !vh.owes:
		u.release()
		return false
	}
	if bad != nil {
		u.release()
		if e.recvError(u, bad) {
			_ = u.conn.Close()
			vh.conn = nil
		}
		return false
	}
	e.alive(vh, u.round)
	vh.upload = u
	e.setOwes(vh, false)
	e.arrived++
	if e.traced {
		// The ingest event parents under the upload span the vehicle
		// propagated (network vs. compute attribution in the merged
		// waterfall), or under the round for an untraced vehicle.
		ingest := obs.SpanContext{
			Trace: e.trace,
			Span:  obs.DeriveSpan(e.trace, "node.ingest", uint64(e.round), uint64(u.vehicleID)),
		}
		parent := e.ctx.Span
		if p := obs.ParseID(u.span); p != 0 {
			parent = p
		}
		fields := append([]obs.Field{obs.F("round", e.round), obs.F("vehicle", u.vehicleID)}, obs.CtxFields(ingest, parent)...)
		s.obs.Emit("node.ingest", fields...)
	}
	t0 := s.obs.Now()
	if e.sink != nil && e.sink.Add(u.vehicleID, u.values) != nil {
		e.sink = nil // defensive: the close redoes the streamed work
	}
	e.overlapNs += int64(s.obs.Now() - t0)
	early := e.target > 0 && e.arrived >= e.target && e.outstanding > 0
	if early {
		for id := range e.veh {
			if e.veh[id].owes {
				e.veh[id].behind = true
			}
		}
		e.closedBy = "budget"
	}
	e.publish("collect", early)
	return early
}

// alive takes an upload for round r, admitted or stale, as proof of
// life: the in-flight window tracks the vehicle's latest round, it is no
// longer behind, and a withheld broadcast (always this round's) is
// released, putting the vehicle back in play.
func (e *engine) alive(vh *vehicle, r int) {
	vh.lastSeen = max(vh.lastSeen, r)
	vh.behind = false
	if vh.withheld {
		vh.withheld = false
		if err := sendFlush(vh.conn, &e.bc); err != nil {
			e.kill(vh)
			return
		}
		e.setOwes(vh, true)
	}
}

// corrupt counts a corrupt upload frame and, up to maxRetransmits times
// a round, re-broadcasts the round so the vehicle resends its cached
// upload.
func (e *engine) corrupt(u result) {
	s := e.s
	e.report.CorruptFrames++
	s.cCorrupt.Inc()
	s.obs.Emit("node.corrupt_frame", obs.F("round", e.round), obs.F("vehicle", u.vehicleID))
	vh := &e.veh[u.vehicleID]
	if vh.conn != u.conn || vh.dead || !vh.owes || vh.retrans >= maxRetransmits {
		return
	}
	vh.retrans++
	e.report.Retransmits++
	s.cRetransmit.Inc()
	s.obs.Emit("node.retransmit", obs.F("round", e.round), obs.F("vehicle", u.vehicleID), obs.F("attempt", vh.retrans))
	if err := sendFlush(u.conn, &e.bc); err != nil {
		e.kill(vh)
	}
}

// recvError ends a vehicle's connection: the vehicle is dead until it
// rejoins. An error from a connection a rejoin replaced is ignored;
// recvError reports whether it counted the error.
func (e *engine) recvError(u result, err error) bool {
	vh := &e.veh[u.vehicleID]
	if vh.conn != u.conn {
		return false
	}
	e.kill(vh)
	e.report.RecvErrors++
	e.s.cRecvErrors.Inc()
	e.s.obs.Emit("node.recv_error", obs.F("round", e.round), obs.F("vehicle", u.vehicleID), obs.F("error", err.Error()))
	return true
}

// rejoin revives a reconnected vehicle mid-round: the connection is
// swapped in (the stale one closed), Setup is resent so a restarted
// process can rebuild its share, and if the vehicle still owes this
// round's upload the broadcast is resent too — which makes a withheld
// one obsolete.
func (e *engine) rejoin(req rejoinReq) {
	s := e.s
	vh := &e.veh[req.id]
	if vh.conn != nil && vh.conn != req.conn {
		_ = vh.conn.Close()
	}
	vh.conn, vh.helloNs = req.conn, req.helloNs
	vh.dead, vh.behind, vh.withheld = false, false, false
	e.report.Rejoins++
	s.cRejoins.Inc()
	e.publish("collect", false)
	s.obs.Emit("node.rejoin", obs.F("round", e.round), obs.F("vehicle", req.id))
	err := e.configure(req.id)
	if err == nil && vh.upload.values == nil {
		if err = req.conn.Send(&e.bc); err == nil {
			e.setOwes(vh, true)
		}
	}
	if err == nil {
		err = transport.Flush(req.conn)
	}
	if err != nil {
		e.kill(vh)
		_ = req.conn.Close()
		return
	}
	e.receive(req.id, req.conn)
}

// close ends the round: a straggler verdict for every live vehicle
// without an upload, then the scheme's streamed aggregation and
// fl.CloseRound — the close fl.System runs too — over exactly the
// admitted uploads, whose buffers then go back to their receivers. Below
// K nothing can be verified: the model holds still and the round counts
// as degraded instead of failing the session (DESIGN.md §11).
func (e *engine) close() error {
	s := e.s
	defer e.releaseUploads()
	if e.closedBy == "budget" {
		s.cEarlyClose.Inc()
		if e.traced {
			s.obs.Emit("node.early_close", obs.F("round", e.round), obs.F("arrived", e.arrived))
		}
	}
	if e.traced {
		s.obs.Emit("node.pipeline",
			obs.F("round", e.round),
			obs.F("wait_budget", s.cfg.WaitBudget),
			obs.F("arrived", e.arrived),
			obs.F("closed_by", e.closedBy),
			obs.F("overlap_ns", e.overlapNs))
	}
	stragglers := 0
	for id := range e.veh {
		vh := &e.veh[id]
		e.rows[id] = vh.upload.values
		if !vh.dead && vh.upload.values == nil {
			e.report.Stragglers++
			stragglers++
			s.cStragglers.Inc()
			if e.traced {
				s.obs.Emit("node.straggler", obs.F("round", e.round), obs.F("vehicle", id))
			}
		}
	}
	if e.arrived < e.k {
		e.report.DegradedRounds++
		s.cDegraded.Inc()
		e.publish("aggregate", false)
		if e.traced {
			s.obs.Emit("node.degraded", obs.F("round", e.round), obs.F("present", e.arrived), obs.F("need", e.k))
			e.span.End(obs.F("stragglers", stragglers), obs.F("degraded", true))
		}
		e.report.Rounds = e.round
		s.cRoundsDone.Inc()
		return nil
	}
	e.publish("aggregate", false)
	// Finish on the streamed ingest (core/stream.go), the scheme's
	// core.aggregate span under this round's (detached when untraced).
	s.scheme.SetSpanParent(e.ctx)
	targets, err := s.scheme.AggregateStreamed(e.sink, e.rows)
	if err == nil {
		err = fl.CloseRound(s.distiller, s.shared, targets)
	}
	if err != nil {
		return fmt.Errorf("node: round %d: %w", e.round, err)
	}
	flagged := 0
	for id, n := range s.scheme.DetectedMalicious {
		if n > 0 {
			e.veh[id].flagged = true
			flagged++
		}
	}
	e.report.Rounds = e.round
	s.cRoundsDone.Inc()
	if e.traced {
		e.span.End(
			obs.F("stragglers", stragglers),
			obs.F("decode_failures", s.scheme.DecodeFailures),
			obs.F("flagged", flagged))
	}
	return nil
}

// releaseUploads hands the round's admitted uploads back to their
// receivers once the close is done with them.
func (e *engine) releaseUploads() {
	for id := range e.veh {
		e.veh[id].upload.release()
	}
}

// finish sends Finished to every live vehicle, marks the session over
// — answering rejoins still queued, so late reconnectors terminate
// instead of hanging — and settles the report.
func (e *engine) finish() *Report {
	s := e.s
	fin := &protocol.Message{Finished: &protocol.Finished{Rounds: e.report.Rounds}}
	for id := range e.veh {
		if !e.veh[id].dead {
			_ = sendFlush(e.veh[id].conn, fin) // best effort; the session is over
		}
	}
	s.mu.Lock()
	s.done, s.finRounds = true, e.report.Rounds
	s.mu.Unlock()
	// Nothing enqueues once done is set, so the queue only drains.
	for len(s.rejoin) > 0 {
		sendFinished((<-s.rejoin).conn, e.report.Rounds)
	}
	e.round, e.arrived, e.outstanding = e.report.Rounds, 0, 0
	e.publish("done", false)
	for id := range e.veh {
		if e.veh[id].flagged {
			e.report.SuspectedMalicious = append(e.report.SuspectedMalicious, id)
		}
	}
	e.report.FinalParams = s.shared.Params()
	return &e.report
}

// publish refreshes the live Status from the engine; withBehind also
// relists, in place, the vehicles a budget close left behind (Status hands
// readers a copy).
func (e *engine) publish(phase string, withBehind bool) {
	e.s.statusMu.Lock()
	defer e.s.statusMu.Unlock()
	st := &e.s.status
	st.Phase, st.Round, st.Arrived, st.Outstanding = phase, e.round, e.arrived, e.outstanding
	st.Stragglers, st.Rejoins, st.DegradedRounds = e.report.Stragglers, e.report.Rejoins, e.report.DegradedRounds
	if !withBehind {
		return
	}
	st.Behind = st.Behind[:0]
	for id := range e.veh {
		if e.veh[id].behind {
			st.Behind = append(st.Behind, id)
		}
	}
}

// rearm points a timer that may be running, stopped or already fired at
// d from now. The module's go 1.22 line keeps the pre-1.23 timer rules: a
// Reset is only sound on a stopped timer whose channel is drained.
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// sendFlush sends m and pushes it onto the wire; on a buffered fabric an
// unflushed frame was never delivered, so a flush error is a send error.
func sendFlush(conn transport.Conn, m *protocol.Message) error {
	if err := conn.Send(m); err != nil {
		return err
	}
	return transport.Flush(conn)
}

// ClientConfig parameterises one vehicle process.
type ClientConfig struct {
	// VehicleID is the vehicle's identity (0..V-1).
	VehicleID int
	// SessionID names the FL session to join on a multi-session fleet.
	// Empty joins the fleet's default session; a single-session fusion
	// centre ignores it either way.
	SessionID string
	// Data is the private local dataset.
	Data []nn.Sample
	// Seed drives local SGD shuffling.
	Seed int64
	// Corrupt optionally turns the vehicle malicious: every uploaded
	// scalar is rewritten by the behaviour before sending.
	Corrupt adversary.Behavior
}

// transientError marks connection-level failures that RunVehicleRetry
// recovers from by reconnecting; protocol violations and training
// failures stay permanent.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// transientf builds a transient (reconnectable) error.
func transientf(format string, args ...any) error {
	return &transientError{err: fmt.Errorf(format, args...)}
}

// IsTransient reports whether err is a connection failure a reconnect
// could recover from.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// vehicleSession is a vehicle's state across connections: the local
// model, its encoded share, the SGD shuffle stream, and the last upload.
// Keeping it outside the per-connection loop is what makes reconnection
// exact — a resumed session resends the cached upload instead of
// retraining, so its randomness stream (and therefore every subsequent
// round) is bit-identical to a fault-free run.
type vehicleSession struct {
	cfg ClientConfig
	o   *obs.Obs
	// cCorrupt counts detected corrupt frames, resolved once here so
	// the per-frame noteCorrupt path never touches the registry.
	cCorrupt *obs.Counter
	// Stage histograms mirror the per-round vehicle spans with the exact
	// same elapsed values, so cmd/tracereport -check-metrics can
	// cross-check trace span sums against the metrics snapshot.
	hTrain  *obs.Histogram
	hEncode *obs.Histogram
	hUpload *obs.Histogram

	local *nn.Network
	share *core.Share
	rng   *rand.Rand

	// lastUpload is the share's upload buffer as of lastRound: a
	// re-broadcast of that round resends it as is. up and upMsg are the
	// one Upload message every send rewrites.
	lastRound  int
	lastUpload []float64
	up         protocol.Upload
	upMsg      protocol.Message

	// trace is the session trace adopted from Setup.TraceID (or derived
	// from the scheme seed when the fusion centre runs untraced);
	// parentSpan is the current round's fusion-side span, the propagated
	// parent of this round's train/encode/upload spans. Both zero with
	// tracing off; single-goroutine like lastRound.
	trace      uint64
	parentSpan uint64
}

// newVehicleSession validates the config; the model and share are built
// lazily from the first Setup message.
func newVehicleSession(cfg ClientConfig, o *obs.Obs) (*vehicleSession, error) {
	if len(cfg.Data) == 0 {
		return nil, fmt.Errorf("node: vehicle %d has no local data", cfg.VehicleID)
	}
	return &vehicleSession{
		cfg:      cfg,
		o:        o,
		cCorrupt: o.Counter("node.client_corrupt_frames", obs.CountOf("node.client_corrupt_frame")),
		hTrain:   o.Histogram("node.train_ns", obs.LatencyBuckets(), obs.SpanOf("node.train")),
		hEncode:  o.Histogram("node.encode_ns", obs.LatencyBuckets(), obs.SpanOf("node.encode")),
		hUpload:  o.Histogram("node.upload_ns", obs.LatencyBuckets(), obs.SpanOf("node.upload")),
	}, nil
}

// emitStage records one vehicle round stage as a histogram observation
// plus — with tracing on — a span carrying this vehicle's derived stage
// span under the propagated round parent. Span and histogram share the
// exact elapsed value; the -check-metrics cross-check depends on that.
func (s *vehicleSession) emitStage(stage string, hist *obs.Histogram, round int, start, elapsed time.Duration) {
	hist.Observe(int64(elapsed))
	if !s.o.TraceEnabled() || s.trace == 0 {
		return
	}
	ctx := obs.SpanContext{
		Trace: s.trace,
		Span:  obs.DeriveSpan(s.trace, stage, uint64(round), uint64(s.cfg.VehicleID)),
	}
	s.o.EmitSpan(stage, start, elapsed, append([]obs.Field{
		obs.F("round", round),
		obs.F("vehicle", s.cfg.VehicleID),
	}, obs.CtxFields(ctx, s.parentSpan)...)...)
}

// install builds the local model and this vehicle's share from Setup, and
// fails here rather than in round 1 when Setup contradicts itself (a model
// width other than the reference set's, an ID the scheme has no point
// for). On a rejoin the server resends Setup; an already-installed session
// keeps its trained model and advanced randomness stream and ignores the
// repeat.
func (s *vehicleSession) install(setup *protocol.Setup) error {
	if s.local != nil {
		return nil
	}
	var act approx.Activation
	if len(setup.ActivationCoeffs) > 0 {
		act = approx.FromPolynomial("wire-poly", poly.NewReal(setup.ActivationCoeffs...))
	} else {
		act = approx.SymmetricSigmoid()
	}
	local, err := nn.New(nn.Config{
		LayerSizes: []int{setup.InputSize, 1},
		Activation: act,
		Seed:       s.cfg.Seed,
	})
	if err != nil {
		return fmt.Errorf("node: local model: %w", err)
	}
	share, err := core.NewShare(setup.RefX, core.SchemeConfig{
		NumVehicles: setup.SchemeVehicles,
		NumBatches:  setup.SchemeBatches,
		Degree:      setup.SchemeDegree,
		Seed:        setup.SchemeSeed,
	}, s.cfg.VehicleID)
	if err != nil {
		return fmt.Errorf("node: vehicle %d share: %w", s.cfg.VehicleID, err)
	}
	if features := len(setup.RefX[0]); setup.InputSize != features {
		return fmt.Errorf("node: setup names input size %d for %d reference features", setup.InputSize, features)
	}
	s.local = local
	s.share = share
	s.rng = newVehicleRNG(s.cfg.Seed)
	return nil
}

// run speaks the vehicle protocol on one connection until Finished (nil)
// or an error; transient (connection-level) errors satisfy IsTransient
// and may be retried on a fresh connection with the same session.
func (s *vehicleSession) run(conn transport.Conn) error {
	id := s.cfg.VehicleID
	traced := s.o.TraceEnabled()
	hello := &protocol.Hello{Version: protocol.Version, VehicleID: id, SessionID: s.cfg.SessionID}
	if traced && s.trace != 0 {
		// Reconnecting mid-session: announce the already-adopted session
		// trace so the fusion centre can tie the rejoin to it.
		hello.TraceID = obs.FormatID(s.trace)
	}
	t0 := s.o.Now() // local clock when the hello left
	if err := sendFlush(conn, &protocol.Message{Hello: hello}); err != nil {
		return transientf("node: hello: %w", err)
	}
	var setup *protocol.Setup
	var t1 time.Duration // local clock when Setup arrived
	for setup == nil {
		m, err := conn.Recv()
		if err != nil {
			if errors.Is(err, protocol.ErrCorruptFrame) {
				s.noteCorrupt()
				continue
			}
			return transientf("node: awaiting setup: %w", err)
		}
		if m.Finished != nil {
			// A rejoin that arrived after the session ended: the fusion
			// centre answers the handshake with Finished instead of
			// Setup. The session is over; terminate cleanly.
			return nil
		}
		if m.Admission != nil {
			// A fleet answered the handshake before Setup could follow
			// (DESIGN §16). Queued: the connection budget is exhausted but
			// we hold our place — keep waiting for Setup. Rejected with
			// the retry hint: transient, so RunVehicleRetry backs off and
			// redials. Rejected outright: permanent.
			ad := m.Admission
			switch {
			case ad.Queued:
				s.o.Emit("node.admission_queued", obs.F("vehicle", id))
				continue
			case ad.Retry:
				return transientf("node: vehicle %d admission deferred: %s", id, ad.Reason)
			default:
				return fmt.Errorf("node: vehicle %d admission rejected: %s", id, ad.Reason)
			}
		}
		if m.Error != nil {
			// The handshake was refused — our protocol revision is below
			// the fusion centre's floor. Redialling cannot change that.
			return fmt.Errorf("node: vehicle %d refused: %s", id, m.Error.Reason)
		}
		if m.Setup == nil {
			return fmt.Errorf("node: expected setup, got %s", m.Kind())
		}
		setup = m.Setup
		t1 = s.o.Now()
	}
	// Setup names the revision the fusion centre negotiated for this
	// connection. Less than ours (absent included) is an older build,
	// outside the one revision this build speaks.
	if setup.WireVersion < protocol.Version {
		return fmt.Errorf("node: fusion centre speaks protocol revision %d, need ≥ %d", setup.WireVersion, protocol.Version)
	}
	transport.SetWireVersion(conn, setup.WireVersion)
	if err := s.install(setup); err != nil {
		return err
	}
	// The round loop reads these and not setup, so the message (the share
	// has its own copy of the reference set) is garbage after the handshake.
	localRate, localEpochs := setup.LocalRate, setup.LocalEpochs
	if traced {
		// Adopt the session trace: from Setup when the fusion centre
		// propagates one, else derived from the scheme seed — both sides
		// compute the same ID, so a vehicle traced alone still converges.
		if tr := obs.ParseID(setup.TraceID); tr != 0 {
			s.trace = tr
		} else if s.trace == 0 {
			s.trace = obs.TraceIDFromSeed(setup.SchemeSeed)
		}
		if setup.HelloNs != 0 || setup.ClockNs != 0 {
			// Clock-offset estimation (DESIGN §15): the server clock at
			// the RTT midpoint is (HelloNs+ClockNs)/2, our own is
			// (t0+t1)/2; the difference maps this process's timestamps
			// onto the fusion centre's timeline in -merge. The server-side
			// processing gap (ClockNs−HelloNs) is excluded from the RTT.
			offset := (setup.HelloNs+setup.ClockNs)/2 - (int64(t0)+int64(t1))/2
			rtt := int64(t1-t0) - (setup.ClockNs - setup.HelloNs)
			s.o.Emit("node.clock_offset",
				obs.F("vehicle", id),
				obs.F("offset_ns", offset),
				obs.F("rtt_ns", rtt),
				obs.F("trace", obs.FormatID(s.trace)))
		}
	}

	for {
		m, err := conn.Recv()
		if err != nil {
			if errors.Is(err, protocol.ErrCorruptFrame) {
				// Frame-local: count it and keep reading. A corrupted
				// broadcast costs this round (straggler at the fusion
				// centre), not the connection.
				s.noteCorrupt()
				continue
			}
			return transientf("node: vehicle %d recv: %w", id, err)
		}
		switch {
		case m.Finished != nil:
			return nil
		case m.Error != nil:
			return fmt.Errorf("node: fusion centre error: %s", m.Error.Reason)
		case m.Broadcast == nil:
			return fmt.Errorf("node: vehicle %d: unexpected message %s", id, m.Kind())
		}
		bc := m.Broadcast
		if traced && s.trace != 0 {
			// The broadcast carries the fusion round span — the parent for
			// this round's train/encode/upload spans. A context-free
			// broadcast (untraced fusion centre) falls back to the derived
			// round span, which is the same value the server computes.
			if p := obs.ParseID(bc.SpanID); p != 0 {
				s.parentSpan = p
			} else {
				s.parentSpan = obs.DeriveSpan(s.trace, "node.round", uint64(bc.Round))
			}
		}
		if bc.Round == s.lastRound && s.lastUpload != nil {
			// Re-broadcast of a round already trained: a retransmit
			// prompt (our upload frame arrived corrupted) or a
			// rejoin resume. Resend the cached upload without
			// retraining, so the randomness stream — and every later
			// round — matches the fault-free run exactly.
			s.o.Emit("node.resend", obs.F("vehicle", id), obs.F("round", bc.Round))
			if err := s.sendUpload(conn, bc.Round); err != nil {
				return err
			}
			continue
		}
		if err := s.local.SetParams(bc.Params); err != nil {
			return fmt.Errorf("node: vehicle %d: %w", id, err)
		}
		// The verification channel needs the broadcast model as received:
		// BeginRound quantises it here, before training moves s.local on.
		if err := s.share.BeginRound(s.local); err != nil {
			return fmt.Errorf("node: vehicle %d: %w", id, err)
		}
		tTrain := s.o.Now()
		if err := s.local.Train(s.cfg.Data, localRate, localEpochs, s.rng); err != nil {
			return fmt.Errorf("node: vehicle %d training: %w", id, err)
		}
		s.emitStage("node.train", s.hTrain, bc.Round, tTrain, s.o.Now()-tTrain)
		tEncode := s.o.Now()
		values, err := s.share.Upload(s.local)
		if err != nil {
			return fmt.Errorf("node: vehicle %d upload: %w", id, err)
		}
		s.emitStage("node.encode", s.hEncode, bc.Round, tEncode, s.o.Now()-tEncode)
		if s.cfg.Corrupt != nil {
			for i := range values {
				values[i] = s.cfg.Corrupt.Corrupt(id, values[i])
			}
		}
		s.lastRound, s.lastUpload = bc.Round, values
		if err := s.sendUpload(conn, bc.Round); err != nil {
			return err
		}
	}
}

// sendUpload ships the cached upload for the given round, flushed so the
// fusion centre's round collector sees it immediately, in the session's
// one Upload message: the connection keeps nothing of it once Send
// returns. Its 2·S verification halves are declared as words, so an honest
// vehicle's halves travel in 4 bytes each (protocol.Upload.Words). With
// tracing on the frame carries the session trace and the derived upload
// span — the same ID on a retransmit resend, so the fusion-side ingest
// parents consistently across attempts.
func (s *vehicleSession) sendUpload(conn transport.Conn, round int) error {
	s.up = protocol.Upload{
		Round:     round,
		VehicleID: s.cfg.VehicleID,
		Values:    s.lastUpload,
		Words:     2 * s.share.Slots(),
	}
	if s.o.TraceEnabled() && s.trace != 0 {
		s.up.TraceID = obs.FormatID(s.trace)
		s.up.SpanID = obs.FormatID(obs.DeriveSpan(s.trace, "node.upload", uint64(round), uint64(s.cfg.VehicleID)))
	}
	s.upMsg = protocol.Message{Upload: &s.up}
	tSend := s.o.Now()
	if err := sendFlush(conn, &s.upMsg); err != nil {
		return transientf("node: vehicle %d send: %w", s.cfg.VehicleID, err)
	}
	s.emitStage("node.upload", s.hUpload, round, tSend, s.o.Now()-tSend)
	return nil
}

// noteCorrupt records a detected corrupt frame on the vehicle side.
func (s *vehicleSession) noteCorrupt() {
	if s.o.Enabled() {
		s.cCorrupt.Inc()
		s.o.Emit("node.client_corrupt_frame", obs.F("vehicle", s.cfg.VehicleID))
	}
}

// RunVehicle speaks the vehicle side of the protocol on one connection
// until Finished. It is single-shot: any failure, including transient
// connection loss, ends the session (use RunVehicleRetry for bounded
// reconnection).
func RunVehicle(conn transport.Conn, cfg ClientConfig) error {
	sess, err := newVehicleSession(cfg, nil)
	if err != nil {
		return err
	}
	return sess.run(conn)
}

// RetryConfig parameterises RunVehicleRetry's reconnection policy.
type RetryConfig struct {
	// Dial opens a fresh connection to the fusion centre (required).
	Dial func() (transport.Conn, error)
	// MaxAttempts bounds consecutive failed connection attempts; the
	// count resets whenever a connection makes round progress
	// (default 5).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100 ms); the
	// delay doubles per consecutive failure up to MaxDelay (default 5 s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Sleeper executes the backoff waits; nil selects obs.RealSleeper.
	// Tests inject obs.ManualSleeper so retry schedules never sleep.
	Sleeper obs.Sleeper
	// Obs attaches node.reconnects counting and reconnect events.
	Obs *obs.Obs
}

// RunVehicleRetry runs a vehicle session with bounded reconnection:
// exponential backoff with jitter drawn from the vehicle seed, session
// state (trained model, randomness stream, cached upload) preserved
// across connections so a crash-and-rejoin recovery is bit-identical to
// the fault-free run. Permanent errors (protocol violations, training
// failures) abort immediately; only transient connection failures retry.
func RunVehicleRetry(cfg ClientConfig, rc RetryConfig) error {
	if rc.Dial == nil {
		return fmt.Errorf("node: vehicle %d: retry dialer required", cfg.VehicleID)
	}
	if rc.MaxAttempts <= 0 {
		rc.MaxAttempts = 5
	}
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = 100 * time.Millisecond
	}
	if rc.MaxDelay <= 0 {
		rc.MaxDelay = 5 * time.Second
	}
	if rc.Sleeper == nil {
		rc.Sleeper = obs.RealSleeper{}
	}
	jitter := field.NewSeededSource(cfg.Seed ^ 0x5ca1ab1e)
	sess, err := newVehicleSession(cfg, rc.Obs)
	if err != nil {
		return err
	}
	cReconnects := rc.Obs.Counter("node.reconnects", obs.CountOf("node.reconnect"))

	failures := 0
	var lastErr error
	for {
		progress := sess.lastRound
		conn, err := rc.Dial()
		if err != nil {
			lastErr = err
		} else {
			err = sess.run(conn)
			_ = conn.Close()
			if err == nil {
				return nil
			}
			if !IsTransient(err) {
				return err
			}
			lastErr = err
		}
		if sess.lastRound > progress {
			failures = 0 // the connection advanced the session: fresh budget
		}
		failures++
		if failures >= rc.MaxAttempts {
			return fmt.Errorf("node: vehicle %d gave up after %d attempts: %w",
				cfg.VehicleID, failures, lastErr)
		}
		delay := backoffDelay(rc.BaseDelay, rc.MaxDelay, failures, jitter)
		cReconnects.Inc()
		rc.Obs.Emit("node.reconnect",
			obs.F("vehicle", cfg.VehicleID),
			obs.F("failures", failures),
			obs.F("delay_ns", int64(delay)),
			obs.F("error", lastErr.Error()))
		rc.Sleeper.Sleep(delay)
	}
}

// backoffDelay is exponential backoff with deterministic jitter: the
// base delay doubled per consecutive failure, capped, plus up to 50%
// drawn from the seeded jitter stream (decorrelates vehicles that failed
// together without breaking reproducibility).
func backoffDelay(base, max time.Duration, failures int, jitter *field.SeededSource) time.Duration {
	d := base
	for i := 1; i < failures && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	span := uint64(d / 2)
	if span > 0 {
		d += time.Duration(jitter.Uint64() % (span + 1))
	}
	return d
}
