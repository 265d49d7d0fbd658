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
	"sort"
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
	// MaxRetransmits bounds how many times per round a vehicle whose
	// upload frame arrived corrupted is prompted (by re-broadcast) to
	// resend it. 0 selects the default of 3; negative disables
	// retransmission, turning corrupted uploads into stragglers.
	MaxRetransmits int
	// WaitBudget sets how many uploads beyond the recover threshold K the
	// engine waits for before closing a round's collection window. 0 (the
	// default) waits for every live vehicle; -1 closes at exactly K; n > 0
	// closes at K+n.
	WaitBudget int
	// PipelineWindow bounds in-flight rounds for vehicles that fell
	// behind a budget-based early close: once a behind vehicle is more
	// than PipelineWindow rounds stale, its broadcasts are withheld
	// (latest only) until any upload proves it alive, keeping per-vehicle
	// buffered state flat. 0 selects the default of 2.
	PipelineWindow int
	// Obs attaches the observability layer to the fusion centre and (via
	// Scheme.Obs, unless the caller already set one) to its coding scheme.
	// Nil disables all instrumentation.
	Obs *obs.Obs
}

// defaultMaxRetransmits bounds corrupt-upload recovery per vehicle per
// round.
const defaultMaxRetransmits = 3

// defaultPipelineWindow bounds how many rounds a behind vehicle may lag
// before its broadcasts are withheld.
const defaultPipelineWindow = 2

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

	// trace is the session trace ID every process joins
	// (obs.TraceIDFromSeed(Scheme.Seed)); zero with tracing off. Set
	// once at the top of Run, read only by the run goroutine.
	trace uint64

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
	ver     int // negotiated wire version for this connection
	conn    transport.Conn
	helloNs int64 // server clock when the hello arrived (0 untraced)
}

// Status is a point-in-time snapshot of the round engine, served live by
// the debugz introspection plane (/roundz). All fields describe the
// moment of the call; Behind lists the vehicles currently outpaced by a
// budget close, sorted.
type Status struct {
	// Phase is handshake, collect, aggregate, or done.
	Phase string `json:"phase"`
	// Round is the current (1-based) round; Rounds the configured total.
	Round  int `json:"round"`
	Rounds int `json:"rounds"`
	// RecoverK is the scheme's RS decode threshold K; BudgetTarget is
	// K + D for the round's effective wait budget D (0 = wait for all);
	// WaitBudget is that effective D (-1 = wait for all).
	RecoverK     int `json:"recover_k"`
	WaitBudget   int `json:"wait_budget"`
	BudgetTarget int `json:"budget_target"`
	// Arrived and Outstanding count this round's uploads landed and
	// still owed.
	Arrived     int `json:"arrived"`
	Outstanding int `json:"outstanding"`
	// PipelineWindow echoes the engine config; Behind lists vehicles
	// outpaced by a budget close.
	PipelineWindow int   `json:"pipeline_window"`
	Behind         []int `json:"behind,omitempty"`
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

// setStatus applies one mutation to the live status snapshot. The
// closure runs with statusMu held and must stay cheap.
func (s *Server) setStatus(mutate func(*Status)) {
	s.statusMu.Lock()
	mutate(&s.status)
	s.statusMu.Unlock()
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
	if cfg.MaxRetransmits == 0 {
		cfg.MaxRetransmits = defaultMaxRetransmits
	}
	if cfg.PipelineWindow == 0 {
		cfg.PipelineWindow = defaultPipelineWindow
	}
	if cfg.PipelineWindow < 0 {
		return nil, fmt.Errorf("node: pipeline window %d must be positive", cfg.PipelineWindow)
	}
	if cfg.WaitBudget < -1 {
		return nil, fmt.Errorf("node: wait budget %d outside {-1, 0, 1, ...}", cfg.WaitBudget)
	}
	act := approx.FromPolynomial("wire-poly", poly.NewReal(cfg.ActivationCoeffs...))
	sizes := append([]int{cfg.FL.InputSize}, cfg.FL.Hidden...)
	sizes = append(sizes, 1)
	shared, err := nn.New(nn.Config{LayerSizes: sizes, Activation: act, Seed: cfg.FL.Seed})
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
	srv := &Server{
		cfg:       cfg,
		shared:    shared,
		scheme:    scheme,
		distiller: distiller,
		rejoin:    make(chan rejoinReq, 64),
	}
	if cfg.Obs.Enabled() {
		srv.obs = cfg.Obs
		srv.cRecvErrors = cfg.Obs.Counter("node.recv_errors")
		srv.cStragglers = cfg.Obs.Counter("node.stragglers")
		srv.cRoundsDone = cfg.Obs.Counter("node.rounds")
		srv.cCorrupt = cfg.Obs.Counter("node.corrupt_frames")
		srv.cRetransmit = cfg.Obs.Counter("node.retransmits")
		srv.cRejoins = cfg.Obs.Counter("node.rejoins")
		srv.cDegraded = cfg.Obs.Counter("node.degraded_rounds")
		srv.cEarlyClose = cfg.Obs.Counter("node.early_closes")
	}
	return srv, nil
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
		var helloNs int64
		if s.obs.TraceEnabled() {
			helloNs = int64(s.obs.Now())
		}
		ver := negotiated(h)
		transport.SetWireVersion(conn, ver)
		s.mu.Lock()
		if !s.done {
			select {
			case s.rejoin <- rejoinReq{id: h.VehicleID, ver: ver, conn: conn, helloNs: helloNs}:
				s.mu.Unlock()
				return
			default: // queue full: treat as too-late
			}
		}
		fin := s.finRounds
		s.mu.Unlock()
		_ = conn.Send(&protocol.Message{Finished: &protocol.Finished{Rounds: fin}})
		_ = transport.Flush(conn)
		_ = conn.Close()
	}()
}

// finish marks the session over and answers any queued rejoins with
// Finished so late reconnectors terminate instead of hanging.
func (s *Server) finish(rounds int) {
	s.mu.Lock()
	s.done = true
	s.finRounds = rounds
	s.mu.Unlock()
	for {
		select {
		case req := <-s.rejoin:
			_ = req.conn.Send(&protocol.Message{Finished: &protocol.Finished{Rounds: rounds}})
			_ = transport.Flush(req.conn)
			_ = req.conn.Close()
		default:
			return
		}
	}
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

// negotiated is the wire revision of a connection whose peer sent h:
// min(ours, theirs), a newer peer being clamped down to ours. With
// recvHello's floor that is protocol.Version itself; it is still computed
// per connection, echoed in Setup.WireVersion and handed to
// transport.SetWireVersion, so that a later revision finds the
// negotiation in place.
func negotiated(h *protocol.Hello) int { return min(h.Version, protocol.Version) }

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
// a detected corrupt frame, or a terminal receive error. vehicleID is the
// vehicle that handshaked conn — an upload is attributed by the
// connection it arrived on, never by the ID it names — and conn lets the
// round loop discard events from a connection a rejoin has replaced.
type result struct {
	vehicleID int
	conn      transport.Conn
	round     int
	values    []float64
	span      string // propagated upload span ID ("" when absent)
	corrupt   bool
	err       error
}

// Run drives the session over the given connections (one per vehicle).
// It handshakes, configures every vehicle, executes the rounds, and sends
// Finished. Run blocks until the session completes.
func (s *Server) Run(conns []transport.Conn) (*Report, error) {
	v := s.cfg.Scheme.NumVehicles
	if len(conns) != v {
		return nil, fmt.Errorf("node: got %d connections, scheme expects %d vehicles", len(conns), v)
	}
	// The session trace every process joins is derived deterministically
	// from the scheme seed (DESIGN §15), so fusion centre and vehicles
	// agree on it even before the Setup message announces it.
	traced := s.obs.TraceEnabled()
	var traceHex string
	if traced {
		s.trace = obs.TraceIDFromSeed(s.cfg.Scheme.Seed)
		traceHex = obs.FormatID(s.trace)
	}
	s.setStatus(func(st *Status) {
		*st = Status{
			Phase:          "handshake",
			Rounds:         s.cfg.Rounds,
			RecoverK:       s.scheme.RecoverThreshold(),
			PipelineWindow: s.cfg.PipelineWindow,
			TraceID:        traceHex,
		}
	})
	// Handshake: map connections to vehicle IDs and negotiate each
	// connection's wire version from the peer's announced revision.
	byID := make(map[int]transport.Conn, v)
	vers := make(map[int]int, v)
	helloNs := make(map[int]int64, v)
	for i, conn := range conns {
		h, err := readHello(conn, v)
		if err != nil {
			return nil, fmt.Errorf("node: conn %d: %w", i, err)
		}
		id := h.VehicleID
		if _, dup := byID[id]; dup {
			return nil, fmt.Errorf("node: duplicate vehicle ID %d", id)
		}
		byID[id] = conn
		ver := negotiated(h)
		vers[id] = ver
		transport.SetWireVersion(conn, ver)
		// Relabel the instrumented connection now that the peer has
		// identified itself: its transport events carry "vehicle-<id>"
		// instead of the accept-order placeholder.
		if sp, ok := conn.(interface{ SetPeer(string) }); ok {
			sp.SetPeer(fmt.Sprintf("vehicle-%d", id))
		}
		if traced {
			// The hello receive timestamp anchors this connection's
			// clock-offset estimate: Setup echoes it back alongside the
			// send timestamp, and the vehicle brackets the pair with its
			// own clock (RTT midpoint, DESIGN §15).
			helloNs[id] = int64(s.obs.Now())
			fields := []obs.Field{
				obs.F("vehicle", id),
				obs.F("version", ver),
				obs.F("trace", traceHex),
			}
			if h.TraceID != "" {
				fields = append(fields, obs.F("peer_trace", h.TraceID))
			}
			s.obs.Emit("node.hello", fields...)
		}
	}
	setup := &protocol.Setup{
		InputSize:        s.cfg.FL.InputSize,
		LocalEpochs:      s.cfg.FL.LocalEpochs,
		LocalRate:        s.cfg.FL.LocalRate,
		ActivationCoeffs: s.cfg.ActivationCoeffs,
		RefX:             s.cfg.RefX,
		SchemeVehicles:   s.cfg.Scheme.NumVehicles,
		SchemeBatches:    s.cfg.Scheme.NumBatches,
		SchemeDegree:     s.cfg.Scheme.Degree,
		SchemeSeed:       s.cfg.Scheme.Seed,
	}
	// Every per-vehicle sweep below walks this sorted ID list rather
	// than ranging byID directly: map iteration order is randomized, and
	// send order shapes the wire trace and straggler telemetry, which
	// must be identical across runs (DESIGN §8).
	ids := sortedVehicleIDs(byID)
	for _, id := range ids {
		// Each vehicle gets its own Setup copy carrying the version
		// negotiated for its connection. Deliberately not flushed here: on
		// a buffered fabric the Setup coalesces with round 1's broadcast
		// into a single write.
		su := *setup
		su.WireVersion = vers[id]
		if traced {
			su.TraceID = traceHex
			su.HelloNs = helloNs[id]
			su.ClockNs = int64(s.obs.Now())
		}
		if err := byID[id].Send(&protocol.Message{Setup: &su}); err != nil {
			return nil, fmt.Errorf("node: setup to vehicle %d: %w", id, err)
		}
	}

	// One receiver goroutine per connection feeds the round loop. Corrupt
	// frames are frame-local (the stream stays in sync), so the receiver
	// reports them and keeps reading; any other error is terminal for the
	// connection.
	//
	// The buffer is sized so a receiver goroutine can never block while
	// the round loop is busy elsewhere (broadcasting, aggregating,
	// distilling): with PipelineWindow+1 rounds in flight per vehicle (the
	// current round plus up to window stale rounds a behind vehicle may
	// still answer), each round can produce at most one upload, up to
	// MaxRetransmits corrupt-frame reports answered by re-prompts plus the
	// original corrupt frame — maxRe+2 frames — and the connection's one
	// terminal error is covered by the final slot of its last round.
	maxRe := s.cfg.MaxRetransmits
	if maxRe < 0 {
		maxRe = 0
	}
	results := make(chan result, v*(s.cfg.PipelineWindow+1)*(maxRe+2))
	startReceiver := func(id int, conn transport.Conn) {
		go func() {
			for {
				m, err := conn.Recv()
				if err != nil {
					if errors.Is(err, protocol.ErrCorruptFrame) {
						results <- result{vehicleID: id, conn: conn, corrupt: true}
						continue
					}
					results <- result{vehicleID: id, conn: conn, err: err}
					return
				}
				if m.Upload == nil {
					results <- result{vehicleID: id, conn: conn, err: fmt.Errorf("unexpected %s", m.Kind())}
					return
				}
				results <- result{vehicleID: id, conn: conn, round: m.Upload.Round, values: m.Upload.Values, span: m.Upload.SpanID}
			}
		}()
	}
	for _, id := range ids {
		startReceiver(id, byID[id])
	}

	report := &Report{}
	flagged := map[int]bool{}
	dead := map[int]bool{}

	// Pipeline state (DESIGN.md §14), confined to this goroutine like the
	// maps above: lastSeen/behind/pendingBc implement the bounded
	// in-flight-rounds window for vehicles outpaced by a budget close.
	lastSeen := make(map[int]int, v)             // latest round each vehicle uploaded for
	behind := make(map[int]bool)                 // vehicles outpaced by a budget close
	pendingBc := make(map[int]*protocol.Message) // withheld broadcasts, latest only

	// Per-round state, hoisted so the rejoin handler (a closure shared by
	// every round's collect loop) sees the current round's values — and
	// so the buffers are allocated once: each round clears and refills
	// uploads, outstanding and retrans instead of rebuilding them. Nothing
	// keeps them past its round (the streamed ingest holds upload rows,
	// never the uploads slice itself).
	var (
		round       int
		bc          *protocol.Message
		uploads     = make([][]float64, v)
		outstanding = make(map[int]bool, v)
		retrans     = make(map[int]int)
	)
	// One deadline timer for the whole session, re-armed every round: a
	// time.After per round would stay live until it fired.
	deadline := time.NewTimer(s.cfg.RoundTimeout)
	defer deadline.Stop()

	// noteUpload records an upload's arrival — current round or stale —
	// as proof of life: the in-flight window tracks the vehicle's latest
	// round, it is no longer behind, and a withheld broadcast (always the
	// current round's) is released, putting the vehicle back in play.
	noteUpload := func(id, r int) {
		if r > lastSeen[id] {
			lastSeen[id] = r
		}
		delete(behind, id)
		if wb, ok := pendingBc[id]; ok {
			delete(pendingBc, id)
			if err := sendFlush(byID[id], wb); err != nil {
				dead[id] = true
				return
			}
			outstanding[id] = true
		}
	}

	// handleRejoin revives a reconnected vehicle mid-round: the
	// connection is swapped in (the stale one closed), Setup is resent so
	// a restarted process can rebuild its share, and if the vehicle
	// still owes this round's upload the broadcast is resent too.
	handleRejoin := func(req rejoinReq) {
		id := req.id
		if old, ok := byID[id]; ok && old != req.conn {
			_ = old.Close()
		}
		byID[id] = req.conn
		dead[id] = false
		// The revival below resends the broadcast directly; a withheld one
		// is obsolete, and the rejoined vehicle is current again.
		delete(behind, id)
		delete(pendingBc, id)
		if sp, ok := req.conn.(interface{ SetPeer(string) }); ok {
			sp.SetPeer(fmt.Sprintf("vehicle-%d", id))
		}
		report.Rejoins++
		s.cRejoins.Inc()
		s.setStatus(func(st *Status) { st.Rejoins++ })
		s.obs.Emit("node.rejoin", obs.F("round", round), obs.F("vehicle", id))
		fail := func() {
			dead[id] = true
			delete(outstanding, id)
			_ = req.conn.Close()
		}
		su := *setup
		su.WireVersion = req.ver
		if traced {
			su.TraceID = traceHex
			su.HelloNs = req.helloNs
			su.ClockNs = int64(s.obs.Now())
		}
		if err := req.conn.Send(&protocol.Message{Setup: &su}); err != nil {
			fail()
			return
		}
		if uploads[id] == nil {
			if err := req.conn.Send(bc); err != nil {
				fail()
				return
			}
			outstanding[id] = true
		}
		if err := transport.Flush(req.conn); err != nil {
			fail()
			return
		}
		startReceiver(id, req.conn)
	}

	for round = 1; round <= s.cfg.Rounds; round++ {
		s.obs.Emit("node.round_start", obs.F("round", round))
		// The round span's ID is derived, not random, so every process
		// computes the same value and the merged timeline can nest
		// vehicle-side spans under it even when a frame carries no context.
		var roundCtx obs.SpanContext
		roundFields := []obs.Field{obs.F("round", round)}
		if traced {
			roundCtx = obs.SpanContext{Trace: s.trace, Span: obs.DeriveSpan(s.trace, "node.round", uint64(round))}
			roundFields = append(roundFields, obs.CtxFields(roundCtx, 0)...)
		}
		roundSpan := s.obs.Start("node.round", roundFields...)
		if err := s.scheme.BeginRound(s.shared); err != nil {
			return nil, fmt.Errorf("node: round %d: %w", round, err)
		}
		bc = &protocol.Message{Broadcast: &protocol.Broadcast{Round: round, Params: s.shared.Params()}}
		if traced {
			bc.Broadcast.TraceID = traceHex
			bc.Broadcast.SpanID = obs.FormatID(roundCtx.Span)
		}
		for _, id := range ids {
			if dead[id] {
				continue
			}
			// In-flight window: a vehicle outpaced by a budget close more
			// than PipelineWindow rounds ago gets its broadcast withheld
			// (latest only — stashing overwrites) until any upload proves
			// it alive, so a vanished straggler never accumulates frames.
			if behind[id] && round-lastSeen[id] > s.cfg.PipelineWindow {
				pendingBc[id] = bc
				continue
			}
			// The flush barrier after each broadcast is where a buffered
			// fabric pays its one write syscall; in round 1 the frame
			// coalesces with the still-unflushed Setup. A flush failure is
			// a send failure: the frame never reached the wire.
			if err := sendFlush(byID[id], bc); err != nil {
				dead[id] = true
			}
		}

		clear(uploads)
		clear(outstanding)
		clear(retrans)
		for id := range byID {
			if !dead[id] && pendingBc[id] == nil {
				outstanding[id] = true
			}
		}

		// Streaming ingest: each accepted upload flows into the scheme's
		// incremental decoder immediately, so most of the decode work is
		// already done when the collection window closes. The effective
		// wait-budget decides that close: -1 waits for every live vehicle,
		// otherwise the window closes once K + effBudget uploads have
		// landed.
		sink := s.scheme.BeginIngest()
		effBudget := -1
		switch {
		case s.cfg.WaitBudget == -1:
			effBudget = 0
		case s.cfg.WaitBudget > 0:
			effBudget = s.cfg.WaitBudget
		}
		budgetTarget := 0
		if effBudget >= 0 {
			budgetTarget = s.scheme.RecoverThreshold() + effBudget
		}
		arrived := 0
		closedBy := "all"
		var overlapNs int64
		s.setStatus(func(st *Status) {
			st.Phase = "collect"
			st.Round = round
			st.WaitBudget = effBudget
			st.BudgetTarget = budgetTarget
			st.Arrived = 0
			st.Outstanding = len(outstanding)
			st.Behind = sortedFlagged(behind)
		})
		rearm(deadline, s.cfg.RoundTimeout)
		// The round closes when every outstanding upload has arrived —
		// but if connection loss empties the outstanding set while the
		// round is still below the decode threshold K, the window stays
		// open until the deadline: degradation is a timeout outcome, and
		// crashed vehicles get the full round window to rejoin (the
		// rejoin handler re-arms outstanding) before the model is held
		// still. Without this, a shard-wide failure — a crashed relay —
		// would burn through every remaining round degraded in
		// microseconds, faster than any vehicle can reconnect.
		kThreshold := s.scheme.RecoverThreshold()
	collect:
		for len(outstanding) > 0 || arrived < kThreshold {
			select {
			case u := <-results:
				switch {
				case u.corrupt:
					report.CorruptFrames++
					s.cCorrupt.Inc()
					s.obs.Emit("node.corrupt_frame", obs.F("round", round), obs.F("vehicle", u.vehicleID))
					// Prompt the vehicle to resend its cached upload by
					// re-broadcasting the round, within budget.
					if byID[u.vehicleID] != u.conn || dead[u.vehicleID] || !outstanding[u.vehicleID] {
						break
					}
					if retrans[u.vehicleID] >= s.cfg.MaxRetransmits {
						break
					}
					retrans[u.vehicleID]++
					report.Retransmits++
					s.cRetransmit.Inc()
					s.obs.Emit("node.retransmit",
						obs.F("round", round),
						obs.F("vehicle", u.vehicleID),
						obs.F("attempt", retrans[u.vehicleID]))
					if err := sendFlush(u.conn, bc); err != nil {
						dead[u.vehicleID] = true
						delete(outstanding, u.vehicleID)
					}
				case u.err != nil:
					if byID[u.vehicleID] != u.conn {
						break // stale error from a replaced connection
					}
					dead[u.vehicleID] = true
					delete(outstanding, u.vehicleID)
					report.RecvErrors++
					s.cRecvErrors.Inc()
					s.obs.Emit("node.recv_error",
						obs.F("round", round),
						obs.F("vehicle", u.vehicleID),
						obs.F("error", u.err.Error()))
				case u.round != round:
					// Stale upload from a previous round's straggler:
					// discard; the vehicle still owes the current round,
					// but the arrival is proof of life for the window.
					if !dead[u.vehicleID] && byID[u.vehicleID] == u.conn {
						noteUpload(u.vehicleID, u.round)
					}
				case outstanding[u.vehicleID]:
					noteUpload(u.vehicleID, u.round)
					uploads[u.vehicleID] = u.values
					delete(outstanding, u.vehicleID)
					arrived++
					s.setStatus(func(st *Status) {
						st.Arrived = arrived
						st.Outstanding = len(outstanding)
					})
					if traced {
						// The ingest event parents under the upload span the
						// vehicle propagated (network vs. compute attribution
						// in the merged waterfall); an upload without context
						// — an untraced vehicle — parents under the round.
						ingest := obs.SpanContext{
							Trace: s.trace,
							Span:  obs.DeriveSpan(s.trace, "node.ingest", uint64(round), uint64(u.vehicleID)),
						}
						parent := roundCtx.Span
						if p := obs.ParseID(u.span); p != 0 {
							parent = p
						}
						s.obs.Emit("node.ingest", append([]obs.Field{
							obs.F("round", round),
							obs.F("vehicle", u.vehicleID),
						}, obs.CtxFields(ingest, parent)...)...)
					}
					if sink != nil {
						t0 := s.obs.Now()
						if err := sink.Add(u.vehicleID, u.values); err != nil {
							// Defensive: a rejected ingest only forfeits the
							// streamed state; Aggregate redoes the work.
							sink = nil
						}
						overlapNs += int64(s.obs.Now() - t0)
					}
					if budgetTarget > 0 && arrived >= budgetTarget && len(outstanding) > 0 {
						// Enough redundancy: close early and mark the rest
						// behind — candidates for broadcast withholding once
						// they trail by more than the in-flight window.
						for id := range outstanding {
							behind[id] = true
						}
						closedBy = "budget"
						s.setStatus(func(st *Status) { st.Behind = sortedFlagged(behind) })
						break collect
					}
				}
			case req := <-s.rejoin:
				handleRejoin(req)
			case <-deadline.C:
				closedBy = "timeout"
				break collect // stragglers: leave their uploads nil
			}
		}
		if closedBy == "budget" {
			s.cEarlyClose.Inc()
		}
		s.obs.Emit("node.pipeline",
			obs.F("round", round),
			obs.F("wait_budget", effBudget),
			obs.F("arrived", arrived),
			obs.F("closed_by", closedBy),
			obs.F("overlap_ns", overlapNs))
		roundStragglers := 0
		for _, id := range ids {
			if !dead[id] && uploads[id] == nil {
				report.Stragglers++
				roundStragglers++
				s.cStragglers.Inc()
				s.obs.Emit("node.straggler", obs.F("round", round), obs.F("vehicle", id))
			}
		}
		s.setStatus(func(st *Status) {
			st.Phase = "aggregate"
			st.Stragglers += roundStragglers
		})

		present := 0
		for _, up := range uploads {
			if up != nil {
				present++
			}
		}
		if k := s.scheme.RecoverThreshold(); present < k {
			// Below the RS decode threshold nothing can be verified or
			// aggregated: hold the model still rather than fail the
			// session (DESIGN.md §11).
			report.DegradedRounds++
			s.cDegraded.Inc()
			s.setStatus(func(st *Status) { st.DegradedRounds++ })
			s.obs.Emit("node.degraded",
				obs.F("round", round),
				obs.F("present", present),
				obs.F("need", k))
			report.Rounds = round
			s.cRoundsDone.Inc()
			roundSpan.End(obs.F("stragglers", roundStragglers), obs.F("degraded", true))
			continue
		}

		// The round close fl.System runs too, consuming the streamed decode
		// state where it applies (bit-identical to the plain Aggregate,
		// core/stream.go). The scheme's core.aggregate span nests under
		// this round's span; the zero context with tracing off keeps it
		// detached.
		s.scheme.SetSpanParent(roundCtx)
		if _, _, err := fl.CloseRound(s.scheme, sink, s.distiller, s.shared, uploads); err != nil {
			return nil, fmt.Errorf("node: round %d: %w", round, err)
		}
		suspects := s.scheme.SuspectedMalicious()
		for _, id := range suspects {
			flagged[id] = true
		}
		report.Rounds = round
		s.cRoundsDone.Inc()
		roundSpan.End(
			obs.F("stragglers", roundStragglers),
			obs.F("decode_failures", s.scheme.DecodeFailures),
			obs.F("flagged", len(suspects)))
	}

	fin := &protocol.Message{Finished: &protocol.Finished{Rounds: report.Rounds}}
	for _, id := range ids {
		if !dead[id] {
			_ = sendFlush(byID[id], fin) // best effort; the session is over
		}
	}
	s.finish(report.Rounds)
	s.setStatus(func(st *Status) {
		st.Phase = "done"
		st.Round = report.Rounds
		st.Arrived = 0
		st.Outstanding = 0
	})
	for id := range flagged {
		report.SuspectedMalicious = append(report.SuspectedMalicious, id)
	}
	sort.Ints(report.SuspectedMalicious)
	report.FinalParams = s.shared.Params()
	return report, nil
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

// sortedFlagged returns the set's members in ascending order (nil when
// empty), for deterministic Status snapshots.
func sortedFlagged(set map[int]bool) []int {
	if len(set) == 0 {
		return nil
	}
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// sortedVehicleIDs returns byID's keys in ascending order, giving every
// per-vehicle sweep in Run a deterministic schedule.
func sortedVehicleIDs(byID map[int]transport.Conn) []int {
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
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

	lastRound  int
	lastUpload []float64

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
		cCorrupt: o.Counter("node.client_corrupt_frames"),
		hTrain:   o.Histogram("node.train_ns", obs.LatencyBuckets()),
		hEncode:  o.Histogram("node.encode_ns", obs.LatencyBuckets()),
		hUpload:  o.Histogram("node.upload_ns", obs.LatencyBuckets()),
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
		if _, err := s.local.TrainSGD(s.cfg.Data, localRate, localEpochs, s.rng); err != nil {
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
// fusion centre's round collector sees it immediately. With tracing on
// the frame carries the session trace and the derived upload span — the
// same ID on a retransmit resend, so the fusion-side ingest parents
// consistently across attempts.
func (s *vehicleSession) sendUpload(conn transport.Conn, round int) error {
	up := &protocol.Upload{
		Round:     round,
		VehicleID: s.cfg.VehicleID,
		Values:    s.lastUpload,
	}
	if s.o.TraceEnabled() && s.trace != 0 {
		up.TraceID = obs.FormatID(s.trace)
		up.SpanID = obs.FormatID(obs.DeriveSpan(s.trace, "node.upload", uint64(round), uint64(s.cfg.VehicleID)))
	}
	tSend := s.o.Now()
	if err := sendFlush(conn, &protocol.Message{Upload: up}); err != nil {
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
	// JitterSeed drives the deterministic backoff jitter stream
	// (0 derives one from the vehicle's seed).
	JitterSeed int64
	// Sleeper executes the backoff waits; nil selects obs.RealSleeper.
	// Tests inject obs.ManualSleeper so retry schedules never sleep.
	Sleeper obs.Sleeper
	// Obs attaches node.reconnects counting and reconnect events.
	Obs *obs.Obs
}

// RunVehicleRetry runs a vehicle session with bounded reconnection:
// exponential backoff with deterministic jitter between attempts, session
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
	seed := rc.JitterSeed
	if seed == 0 {
		seed = cfg.Seed ^ 0x5ca1ab1e
	}
	jitter := field.NewSeededSource(seed)
	sess, err := newVehicleSession(cfg, rc.Obs)
	if err != nil {
		return err
	}
	cReconnects := rc.Obs.Counter("node.reconnects")

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
