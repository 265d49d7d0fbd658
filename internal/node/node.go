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
// run; a crashed vehicle may redial its Fleet, which hands the running
// session the new connection, and the round it crashed in waits for that
// rejoin up to the wait budget or the deadline (engine.step, where every
// rule of a round runs); and a round left with fewer uploads than the RS
// recover threshold K degrades gracefully — the model holds still and its
// RoundRecord says so — instead of failing the session. The round records
// are the session's one tally: Report's totals and Status's tallies are
// summed from them, and the one helper that writes a fact into them also
// bumps its node.* counter and emits its trace event.
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
	// default) waits for every vehicle that owes the round; n > 0 closes at
	// K+n. A negative value is refused: a close at exactly K leaves the
	// verification channel no redundancy to flag a liar with.
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

// Report summarises a completed distributed session. Its totals are sums
// over Records, taken once when the session finishes.
type Report struct {
	// Rounds is the number of completed rounds (degraded ones included).
	Rounds int
	// FinalParams is the shared model's final parameter vector.
	FinalParams []float64
	// SuspectedMalicious lists, ascending, every vehicle with a Flagged
	// verdict in any round.
	SuspectedMalicious []int
	// Stragglers counts the Late and Withheld verdicts: each round a live
	// vehicle ended without an admitted upload, whether the deadline or
	// the wait budget closed the round on it or its broadcast was withheld.
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
	// Rejoins counts crashed vehicles revived on a new connection: Setup,
	// and the broadcast if an upload was owed, sent on it.
	Rejoins int
	// DegradedRounds counts rounds that ran with fewer than K uploads and
	// therefore skipped aggregation (the model held still).
	DegradedRounds int
	// Records holds one RoundRecord per completed round, in order.
	Records []RoundRecord
}

// RoundRecord is what one round decided. The engine writes each fact once,
// where it is decided (engine.note for the per-vehicle ones).
type RoundRecord struct {
	Round    int    // 1-based
	ClosedBy string // what ended the collect: "all" (nothing owed), "budget" or "timeout"
	Arrived  int    // admitted uploads
	Degraded bool   // fewer than K arrived: no aggregation, the model held still
	// Verdicts holds one verdict per vehicle, by ID; they sum to V. A
	// session's records share one slab, allocated at its handshake.
	Verdicts []fl.Verdict
	// The round's corrupt frames, retransmit prompts, receive errors and
	// completed rejoins.
	CorruptFrames, Retransmits, RecvErrors, Rejoins int
}

// sum totals records into a Report's counts.
func sum(records []RoundRecord) Report {
	r := Report{Rounds: len(records), Records: records}
	var t fl.Tally
	for _, rec := range records {
		t.Add(rec.Verdicts)
		r.CorruptFrames += rec.CorruptFrames
		r.Retransmits += rec.Retransmits
		r.RecvErrors += rec.RecvErrors
		r.Rejoins += rec.Rejoins
		if rec.Degraded {
			r.DegradedRounds++
		}
	}
	r.Stragglers = t[fl.Late] + t[fl.Withheld]
	return r
}

// A fact is what a round's record keeps about one vehicle: its verdict
// (the fl.Verdict values) or one of the collect-time events it counts.
type fact uint8

const (
	corruptFrame = fact(fl.NumVerdicts) + iota
	retransmit
	recvError
	rejoined
	numFacts
)

// factEvents names each fact's trace event, its counter's twin.
var factEvents = [numFacts]string{fl.Late: "node.straggler", fl.Withheld: "node.straggler",
	corruptFrame: "node.corrupt_frame", retransmit: "node.retransmit", recvError: "node.recv_error", rejoined: "node.rejoin"}

// Server is the fusion centre.
type Server struct {
	cfg       ServerConfig
	shared    *nn.Network
	scheme    *core.Scheme
	distiller *fl.Distiller // the update step over cfg.RefX, one per session

	// rejoins carries each reconnected vehicle's hello to the engine, which
	// takes one only while a round collects; done closes when the session
	// is over. The channel is not the receivers' results, so a flood of
	// hellos cannot use up the room that keeps a receiver from blocking.
	rejoins chan hello
	done    chan struct{}

	statusMu sync.Mutex    // guards status and records
	status   Status        // guarded by statusMu
	records  []RoundRecord // guarded by statusMu; one per round, from the handshake on

	// Observability handles, resolved once in NewServer; counters is
	// indexed by fact.
	obs         *obs.Obs
	counters    [numFacts]*obs.Counter
	cRoundsDone *obs.Counter
	cDegraded   *obs.Counter
	cEarlyClose *obs.Counter
}

// hello is a handshaked connection on its way into a session: the Hello
// its vehicle opened with and the server clock when that hello arrived,
// which anchors the vehicle's clock-offset estimate (DESIGN §15.3).
type hello struct {
	conn transport.Conn
	msg  *protocol.Hello
	ns   int64
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
	// ServerConfig.WaitBudget (0 = wait for all); BudgetTarget is the
	// upload count that closes a round early, K + WaitBudget, or 0 when
	// waiting for all.
	RecoverK     int `json:"recover_k"`
	WaitBudget   int `json:"wait_budget"`
	BudgetTarget int `json:"budget_target"`
	// Arrived and Outstanding count this round's uploads landed and
	// still owed.
	Arrived     int `json:"arrived"`
	Outstanding int `json:"outstanding"`
	// Behind lists the vehicles outpaced by a budget close, ascending.
	Behind []int `json:"behind,omitempty"`
	// Cumulative tallies, summed from the round records as Report's are.
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
	t := sum(s.records[:st.Round])
	st.Stragglers, st.Rejoins, st.DegradedRounds = t.Stragglers, t.Rejoins, t.DegradedRounds
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
	if cfg.WaitBudget < 0 {
		return nil, fmt.Errorf("node: wait budget %d is negative", cfg.WaitBudget)
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
	stragglers := cfg.Obs.Counter("node.stragglers", obs.CountOf("node.straggler"))
	return &Server{
		cfg:       cfg,
		shared:    shared,
		scheme:    scheme,
		distiller: distiller,
		rejoins:   make(chan hello),
		done:      make(chan struct{}),
		obs:       cfg.Obs,
		counters: [numFacts]*obs.Counter{
			fl.Late:      stragglers,
			fl.Withheld:  stragglers,
			corruptFrame: cfg.Obs.Counter("node.corrupt_frames", obs.CountOf("node.corrupt_frame")),
			retransmit:   cfg.Obs.Counter("node.retransmits", obs.CountOf("node.retransmit")),
			recvError:    cfg.Obs.Counter("node.recv_errors", obs.CountOf("node.recv_error")),
			rejoined:     cfg.Obs.Counter("node.rejoins", obs.CountOf("node.rejoin")),
		},
		cRoundsDone: cfg.Obs.Counter("node.rounds", obs.CountOf("node.round")),
		cDegraded:   cfg.Obs.Counter("node.degraded_rounds", obs.CountOf("node.degraded")),
		cEarlyClose: cfg.Obs.Counter("node.early_closes", obs.CountOf("node.early_close")),
	}, nil
}

// Shared exposes the fusion centre's model (for evaluation after Run).
func (s *Server) Shared() *nn.Network { return s.shared }

// enqueue hands the session a reconnected vehicle whose hello its Fleet
// has read, and waits until the engine takes it in a round's collect,
// which revives it (engine.rejoin). A rejoin the session never takes,
// because it ended first, is answered with Finished and closed, so a
// retrying vehicle terminates cleanly.
func (s *Server) enqueue(h hello) {
	select {
	case s.rejoins <- h:
	case <-s.done:
		sendFinished(h.conn, s.cfg.Rounds)
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

// sendFinished tells a vehicle the session ended after rounds rounds and
// closes its connection, best effort: the session is over either way.
func sendFinished(conn transport.Conn, rounds int) {
	_ = sendFlush(conn, &protocol.Message{Finished: &protocol.Finished{Rounds: rounds}})
	_ = conn.Close()
}

// readHello is recvHello plus Run's vehicle-ID range check.
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

// event is one input to a round's rules (engine.step): a receiver's
// result, a rejoining vehicle's hello (conn non-nil), or the deadline.
type event struct {
	result
	rejoin  hello
	timeout bool
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
	behind   bool           // outpaced by a budget close
	lastSeen int            // latest round it uploaded for
	retrans  int            // corrupt-upload prompts this round
	upload   result         // this round's admitted upload (values nil = none)
	// verdict is this round's verdict so far: Late while the upload is
	// owed, Withheld while the broadcast is held back. The close records it.
	verdict fl.Verdict
}

// engine is one Run's state: the per-vehicle table, the session's
// constants, and the current round. Only Run's goroutine touches it; the
// receivers it starts only send on results, and stop once the session's
// done closes.
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
	deadline *time.Timer // one for the session, re-armed every round

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

// Run drives the session over the given connections, one per vehicle in
// any order: it reads every hello, stamping each when it arrives, and
// then runs the session as a Fleet starts it. Run blocks until the
// session completes; a Server runs one session.
func (s *Server) Run(conns []transport.Conn) (*Report, error) {
	v := s.cfg.Scheme.NumVehicles
	if len(conns) != v {
		return nil, fmt.Errorf("node: got %d connections, scheme expects %d vehicles", len(conns), v)
	}
	hellos := make([]hello, v)
	for i, conn := range conns {
		h, err := readHello(conn, v)
		if err != nil {
			return nil, fmt.Errorf("node: conn %d: %w", i, err)
		}
		if hellos[h.VehicleID].conn != nil {
			return nil, fmt.Errorf("node: duplicate vehicle ID %d", h.VehicleID)
		}
		hellos[h.VehicleID] = hello{conn: conn, msg: h, ns: int64(s.obs.Now())}
	}
	return s.run(hellos)
}

// run is the session over one handshaked connection per vehicle, indexed
// by vehicle ID: it configures every vehicle, runs each round as a
// broadcast, a collect and a close (DESIGN §14.5), and sends Finished.
func (s *Server) run(hellos []hello) (*Report, error) {
	defer close(s.done)
	e, err := s.handshake(hellos)
	if err != nil {
		return nil, err
	}
	defer e.deadline.Stop()
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

// handshake seats every vehicle's connection in the table, sends each
// vehicle its Setup and starts its receiver.
func (s *Server) handshake(hellos []hello) (*engine, error) {
	v := s.cfg.Scheme.NumVehicles
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
	if s.cfg.WaitBudget > 0 {
		e.target = e.k + s.cfg.WaitBudget
	}
	if e.traced {
		// Derived from the scheme seed (DESIGN §15), so fusion centre and
		// vehicles agree on the trace before Setup announces it.
		e.trace = obs.TraceIDFromSeed(s.cfg.Scheme.Seed)
		e.traceHex = obs.FormatID(e.trace)
		e.setup.TraceID = e.traceHex
	}
	verdicts := make([]fl.Verdict, s.cfg.Rounds*v)
	records := make([]RoundRecord, s.cfg.Rounds)
	for r := range records {
		records[r] = RoundRecord{Round: r + 1, Verdicts: verdicts[r*v : (r+1)*v : (r+1)*v]}
	}
	s.statusMu.Lock()
	s.records = records
	s.status = Status{Phase: "handshake", Rounds: s.cfg.Rounds, RecoverK: e.k,
		WaitBudget: s.cfg.WaitBudget, BudgetTarget: e.target, TraceID: e.traceHex}
	s.statusMu.Unlock()
	for id, h := range hellos {
		e.veh[id].conn, e.veh[id].helloNs = h.conn, h.ns
		if e.traced {
			fields := []obs.Field{obs.F("vehicle", id), obs.F("version", protocol.Version), obs.F("trace", e.traceHex)}
			if h.msg.TraceID != "" {
				fields = append(fields, obs.F("peer_trace", h.msg.TraceID))
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
// of the accept-order placeholder, settles its wire revision, and sends
// the vehicle its Setup, unflushed. Traced, Setup carries the hello's
// arrival time beside its own send time, and the vehicle brackets the
// pair with its clock for its clock-offset estimate (DESIGN §15.3).
func (e *engine) configure(id int) error {
	vh := &e.veh[id]
	if sp, ok := vh.conn.(interface{ SetPeer(string) }); ok {
		sp.SetPeer(fmt.Sprintf("vehicle-%d", id))
	}
	transport.SetWireVersion(vh.conn, protocol.Version)
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
				case <-e.s.done:
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
	case <-e.s.done:
		return false
	}
}

// broadcast opens round e.round and sends the model to every live
// vehicle, which then owes the round an upload — except a behind vehicle
// more than pipelineWindow rounds stale: its broadcast is withheld
// (latest only) until an upload proves it alive, so a vanished straggler
// never accumulates frames. The round's uploads then stream into the
// scheme's incremental decoder.
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
		vh.retrans, vh.verdict = 0, fl.Disconnected
		switch {
		case vh.dead: // until it rejoins
		case vh.behind && e.round-vh.lastSeen > pipelineWindow:
			vh.verdict = fl.Withheld
		default:
			e.owe(vh)
		}
	}
	e.sink = s.scheme.BeginIngest()
	e.publish("collect", true)
	return nil
}

// owe sends vh the round's broadcast, after which it owes the round an
// upload. A failed send or flush (the barrier where a buffered fabric
// pays its one write) leaves it dead until it rejoins, and owing (step).
func (e *engine) owe(vh *vehicle) {
	e.judge(vh, fl.Late)
	if sendFlush(vh.conn, &e.bc) != nil {
		vh.dead = true
	}
}

// judge sets a vehicle's verdict so far, keeping the count of vehicles
// that owe an upload (Late).
func (e *engine) judge(vh *vehicle, v fl.Verdict) {
	if vh.verdict == fl.Late {
		e.outstanding--
	}
	if v == fl.Late {
		e.outstanding++
	}
	vh.verdict = v
}

// collect hands step one event at a time — a receiver's result, a rejoin
// or the deadline — until step closes the round.
func (e *engine) collect() {
	rearm(e.deadline, e.s.cfg.RoundTimeout)
	for {
		var ev event
		select {
		case ev.result = <-e.results:
		case ev.rejoin = <-e.s.rejoins:
		case <-e.deadline.C:
			ev.timeout = true
		}
		if e.step(ev) {
			return
		}
	}
}

// step applies one event to the open round and reports whether that
// closed it: it is the one place a round's rules run (DESIGN §11). A
// vehicle sent the round's broadcast owes the round an upload until the
// upload is admitted, the engine refuses one (admit), or the round
// closes. A lost connection does not end the debt and a rejoin inherits
// it, so a crashed vehicle's round waits for its rejoin. The round closes
// once nobody owes and K have arrived ("all"), once the arrivals reach
// the wait budget's target while some still owe ("budget": the live ones
// are left behind), or at the deadline ("timeout"). Below K it stays open
// to the deadline even with nothing owed, so a failure that drops many
// links at once cannot burn through every remaining round degraded.
func (e *engine) step(ev event) (closed bool) {
	switch {
	case ev.timeout:
		e.closedBy = "timeout"
		return true // stragglers: their uploads stay nil
	case ev.rejoin.conn != nil:
		e.rejoin(ev.rejoin)
	case errors.Is(ev.err, protocol.ErrCorruptFrame):
		e.corrupt(ev.result)
	case ev.err != nil:
		e.recvError(ev.result, ev.err)
	default:
		e.admit(ev.result)
	}
	budget := e.target > 0 && e.arrived >= e.target && e.outstanding > 0
	if budget {
		for id := range e.veh {
			if vh := &e.veh[id]; vh.verdict == fl.Late && !vh.dead {
				vh.behind = true
			}
		}
		e.closedBy = "budget"
	}
	e.publish("collect", budget)
	return budget || e.outstanding == 0 && e.arrived >= e.k
}

// admit is the one place an upload enters the round. An upload of the
// wrong length, or for a round not yet broadcast, is refused as a receive
// error that also closes the connection and ends what the vehicle owes
// the round. A stale upload, from a round a budget close left behind, is
// proof of life only. An owed upload is admitted and streamed into the
// decoder, and its buffer held until the round closes; every other
// upload's buffer goes back at once.
func (e *engine) admit(u result) {
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
		return
	case vh.verdict != fl.Late:
		u.release()
		return
	}
	if bad != nil {
		u.release()
		if e.recvError(u, bad) {
			_ = u.conn.Close()
			vh.conn = nil
			if vh.verdict != fl.Admitted {
				e.judge(vh, fl.Disconnected)
			}
		}
		return
	}
	e.alive(vh, u.round)
	vh.upload = u
	e.judge(vh, fl.Admitted)
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
}

// alive takes an upload for round r, admitted or stale, as proof of
// life: the in-flight window tracks the vehicle's latest round, it is no
// longer behind, and a withheld broadcast (always this round's) is
// released, putting the vehicle back in play.
func (e *engine) alive(vh *vehicle, r int) {
	vh.lastSeen = max(vh.lastSeen, r)
	vh.behind = false
	if vh.verdict == fl.Withheld {
		e.owe(vh)
	}
}

// corrupt counts a corrupt upload frame and, up to maxRetransmits times
// a round, re-broadcasts the round so the vehicle resends its cached
// upload.
func (e *engine) corrupt(u result) {
	e.note(corruptFrame, u.vehicleID, obs.Field{})
	vh := &e.veh[u.vehicleID]
	if vh.dead || vh.conn != u.conn || vh.verdict != fl.Late || vh.retrans >= maxRetransmits {
		return
	}
	vh.retrans++
	e.note(retransmit, u.vehicleID, obs.F("attempt", vh.retrans))
	e.owe(vh)
}

// recvError ends a vehicle's connection: the vehicle is dead until it
// rejoins. An error from a connection a rejoin replaced is ignored;
// recvError reports whether it counted the error.
func (e *engine) recvError(u result, err error) bool {
	vh := &e.veh[u.vehicleID]
	if vh.conn != u.conn {
		return false
	}
	vh.dead = true
	e.note(recvError, u.vehicleID, obs.F("error", err))
	return true
}

// rejoin revives a reconnected vehicle mid-round: the connection is
// swapped in (the stale one closed), Setup is resent so a restarted
// process can rebuild its share, and unless its upload is already
// admitted the broadcast is resent too (owe) — which makes a withheld one
// obsolete. The rejoin counts once both are out; if either fails, the
// vehicle stays dead.
func (e *engine) rejoin(req hello) {
	id := req.msg.VehicleID
	vh := &e.veh[id]
	if vh.conn != nil && vh.conn != req.conn {
		_ = vh.conn.Close()
	}
	vh.conn, vh.helloNs, vh.dead, vh.behind = req.conn, req.ns, false, false
	switch {
	case e.configure(id) != nil:
		vh.dead = true
	case vh.verdict != fl.Admitted:
		e.owe(vh)
	case transport.Flush(req.conn) != nil:
		vh.dead = true
	}
	if vh.dead {
		_ = req.conn.Close()
		return
	}
	e.note(rejoined, id, obs.Field{})
	e.receive(id, req.conn)
}

// note writes fact f about vehicle id into the open round's record, under
// statusMu since Status reads the records, bumps the fact's counter and,
// traced, emits its event with detail, if it has a key, as a last field.
// A receive error's detail is the error, turned into text only then.
func (e *engine) note(f fact, id int, detail obs.Field) {
	s := e.s
	s.statusMu.Lock()
	rec := &s.records[e.round-1]
	switch f {
	case corruptFrame:
		rec.CorruptFrames++
	case retransmit:
		rec.Retransmits++
	case recvError:
		rec.RecvErrors++
	case rejoined:
		rec.Rejoins++
	default:
		rec.Verdicts[id] = fl.Verdict(f)
	}
	s.statusMu.Unlock()
	s.counters[f].Inc()
	if !e.traced || factEvents[f] == "" {
		return
	}
	fields := []obs.Field{obs.F("round", e.round), obs.F("vehicle", id)}
	if err, ok := detail.Val.(error); ok {
		detail.Val = err.Error()
	}
	if detail.Key != "" {
		fields = append(fields, detail)
	}
	s.obs.Emit(factEvents[f], fields...)
}

// close ends the round: the scheme's streamed aggregation and
// fl.CloseRound — the close fl.System runs too — over exactly the
// admitted uploads, then a verdict for every vehicle, whose upload buffer
// goes back to its receiver; a vehicle with no upload admitted and no
// live connection is Disconnected. Below K nothing can be verified: the
// model holds still and the round is degraded instead of failing the
// session (DESIGN.md §11).
func (e *engine) close() error {
	s := e.s
	degraded := e.arrived < e.k
	s.statusMu.Lock()
	rec := &s.records[e.round-1]
	rec.ClosedBy, rec.Arrived, rec.Degraded = e.closedBy, e.arrived, degraded
	s.statusMu.Unlock()
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
	e.publish("aggregate", false)
	if degraded {
		s.cDegraded.Inc()
		if e.traced {
			s.obs.Emit("node.degraded", obs.F("round", e.round), obs.F("present", e.arrived), obs.F("need", e.k))
		}
	} else {
		for id := range e.veh {
			e.rows[id] = e.veh[id].upload.values
		}
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
	}
	var t fl.Tally
	for id := range e.veh {
		vh := &e.veh[id]
		v := vh.verdict
		switch {
		case v == fl.Admitted && !degraded && s.scheme.DetectedMalicious[id] > 0:
			v = fl.Flagged
		case v != fl.Admitted && vh.dead:
			v = fl.Disconnected
		}
		vh.upload.release()
		t[v]++
		e.note(fact(v), id, obs.Field{})
	}
	s.cRoundsDone.Inc()
	if e.traced {
		stragglers := obs.F("stragglers", t[fl.Late]+t[fl.Withheld])
		if degraded {
			e.span.End(stragglers, obs.F("degraded", true))
		} else {
			e.span.End(stragglers, obs.F("decode_failures", s.scheme.DecodeFailures), obs.F("flagged", t[fl.Flagged]))
		}
	}
	return nil
}

// finish sends Finished to every live vehicle, marks the session over
// and sums the report from the round records. A rejoin arriving from now
// on is answered by enqueue.
func (e *engine) finish() *Report {
	s := e.s
	rounds := s.cfg.Rounds
	fin := &protocol.Message{Finished: &protocol.Finished{Rounds: rounds}}
	for id := range e.veh {
		if !e.veh[id].dead {
			_ = sendFlush(e.veh[id].conn, fin) // best effort; the session is over
		}
	}
	e.round, e.arrived, e.outstanding = rounds, 0, 0
	e.publish("done", false)
	s.statusMu.Lock()
	report := sum(s.records)
	s.statusMu.Unlock()
	for id := range e.veh {
		for _, rec := range report.Records {
			if rec.Verdicts[id] == fl.Flagged {
				report.SuspectedMalicious = append(report.SuspectedMalicious, id)
				break
			}
		}
	}
	report.FinalParams = s.shared.Params()
	return &report
}

// publish refreshes the live Status from the engine; withBehind also
// relists, in place, the vehicles a budget close left behind (Status hands
// readers a copy).
func (e *engine) publish(phase string, withBehind bool) {
	e.s.statusMu.Lock()
	defer e.s.statusMu.Unlock()
	st := &e.s.status
	st.Phase, st.Round, st.Arrived, st.Outstanding = phase, e.round, e.arrived, e.outstanding
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
	// Empty joins the fleet's default session; Server.Run ignores it
	// either way.
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
// fails here rather than in round 1 when Setup contradicts itself (fewer
// than the two activation coefficients NewServer requires, a model width
// other than the reference set's, an ID the scheme has no point for).
// On a rejoin the server resends Setup; an already-installed session
// keeps its trained model and advanced randomness stream and ignores the
// repeat.
func (s *vehicleSession) install(setup *protocol.Setup) error {
	if s.local != nil {
		return nil
	}
	if n := len(setup.ActivationCoeffs); n < 2 {
		return fmt.Errorf("node: setup carries %d activation coefficients, need at least 2", n)
	}
	local, err := nn.New(nn.Config{
		LayerSizes: []int{setup.InputSize, 1},
		Activation: approx.FromPolynomial("wire-poly", poly.NewReal(setup.ActivationCoeffs...)),
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
func backoffDelay(base, ceiling time.Duration, failures int, jitter *field.SeededSource) time.Duration {
	d := base
	for i := 1; i < failures && d < ceiling; i++ {
		d *= 2
	}
	d = min(d, ceiling)
	span := uint64(d / 2)
	if span > 0 {
		d += time.Duration(jitter.Uint64() % (span + 1))
	}
	return d
}
