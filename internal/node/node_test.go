package node

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// session builds a complete distributed scenario over the given fabric.
type session struct {
	server  *Server
	conns   []transport.Conn // fusion-centre side
	clients []ClientConfig
	vconns  []transport.Conn // vehicle side
	test    *traffic.Dataset
	plan    *adversary.Plan // the liars among clients (nil = all honest)
}

func buildSession(t *testing.T, vehicles, rounds int, maliciousFrac float64) *session {
	t.Helper()
	return buildSessionObs(t, vehicles, rounds, maliciousFrac, nil)
}

// setProcs runs the rest of the test at GOMAXPROCS n, the width of every
// pool in the program, and restores the old setting when the test ends.
// The determinism tests sweep it.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// buildSessionObs is buildSession with an observability handle attached
// to the server and every fusion-centre connection (nil = plain session).
func buildSessionObs(t *testing.T, vehicles, rounds int, maliciousFrac float64, o *obs.Obs) *session {
	t.Helper()
	ds, err := traffic.Generate(traffic.GenConfig{Rows: 1200, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.8, 22)
	if err != nil {
		t.Fatal(err)
	}
	refDS, err := traffic.Generate(traffic.GenConfig{Rows: 8 * 24, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	refX := refDS.Features()
	parts, err := train.PartitionIID(vehicles, 24)
	if err != nil {
		t.Fatal(err)
	}
	act := approx.SymmetricSigmoid()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(act.F, -2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(ServerConfig{
		FL: fl.Config{
			InputSize:     traffic.NumFeatures,
			LocalEpochs:   5,
			LocalRate:     0.2,
			DistillEpochs: 20,
			DistillRate:   0.2,
			ServerStep:    0.5,
			Seed:          25,
		},
		Scheme: core.SchemeConfig{
			NumVehicles: vehicles, NumBatches: 8, Degree: 1, Seed: 26,
		},
		RefX:             refX,
		ActivationCoeffs: p,
		Rounds:           rounds,
		RoundTimeout:     10 * time.Second,
		Obs:              o,
	})
	if err != nil {
		t.Fatal(err)
	}
	var plan *adversary.Plan
	if maliciousFrac > 0 {
		plan, err = adversary.NewPlan(vehicles, maliciousFrac, adversary.ConstantLie{Value: 5}, 27)
		if err != nil {
			t.Fatal(err)
		}
	}
	s := &session{server: server, test: test, plan: plan}
	for i := 0; i < vehicles; i++ {
		server_side, vehicle_side := transport.Pipe()
		s.conns = append(s.conns, transport.Instrument(server_side, o, fmt.Sprintf("conn-%d", i)))
		s.vconns = append(s.vconns, vehicle_side)
		cc := ClientConfig{VehicleID: i, Data: parts[i], Seed: fl.VehicleSeed(server.cfg.FL.Seed, i)}
		if plan != nil && plan.IsMalicious(i) {
			cc.Corrupt = adversary.ConstantLie{Value: 5}
		}
		s.clients = append(s.clients, cc)
	}
	return s
}

// run executes the whole session and returns the server report.
func (s *session) run(t *testing.T) *Report {
	t.Helper()
	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := RunVehicle(s.vconns[i], s.clients[i]); err != nil {
				t.Errorf("vehicle %d: %v", i, err)
			}
		}(i)
	}
	report, err := s.server.Run(s.conns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return report
}

func TestDistributedHonestSession(t *testing.T) {
	s := buildSession(t, 20, 10, 0)
	report := s.run(t)
	if report.Rounds != 10 {
		t.Errorf("rounds = %d", report.Rounds)
	}
	if len(report.SuspectedMalicious) != 0 {
		t.Errorf("honest session flagged %v", report.SuspectedMalicious)
	}
	if report.Stragglers != 0 {
		t.Errorf("stragglers = %d", report.Stragglers)
	}
	acc, err := fl.ModelAccuracy(s.server.Shared(), s.test.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Errorf("distributed session accuracy %g — not learning", acc)
	}
}

func TestDistributedMaliciousSession(t *testing.T) {
	s := buildSession(t, 20, 4, 0.25) // 5 malicious, budget (20-8)/2 = 6
	report := s.run(t)
	if report.Rounds != 4 {
		t.Errorf("rounds = %d", report.Rounds)
	}
	flagged := map[int]bool{}
	for _, id := range report.SuspectedMalicious {
		flagged[id] = true
	}
	want := 0
	for i := range s.clients {
		if s.clients[i].Corrupt != nil {
			want++
			if !flagged[i] {
				t.Errorf("malicious vehicle %d not flagged", i)
			}
		}
	}
	if len(flagged) != want {
		t.Errorf("flagged %d vehicles, want %d", len(flagged), want)
	}
}

// runOverTCP runs the session over loopback TCP and returns the server
// report. Vehicle i runs RunVehicle on a dialled connection, wrapped by
// wrap(i, conn) when wrap is not nil, unless byHand[i] is set: then that
// function is given the bare socket and plays the vehicle frame by frame.
// fusion, when not nil, wraps every accepted connection.
func runOverTCP(t *testing.T, s *session, byHand map[int]func(net.Conn), wrap func(i int, c transport.Conn) transport.Conn, fusion func(transport.Conn) transport.Conn) *Report {
	t.Helper()
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, len(s.clients))
	go func() {
		for range s.clients {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		if play := byHand[i]; play != nil {
			sock, err := net.Dial("tcp", l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				defer wg.Done()
				defer sock.Close()
				play(sock)
			}()
			continue
		}
		conn, err := transport.DialTCP(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			conn = wrap(i, conn)
		}
		go func(i int) {
			defer wg.Done()
			if err := RunVehicle(conn, s.clients[i]); err != nil {
				t.Errorf("vehicle %d: %v", i, err)
			}
		}(i)
	}
	serverConns := make([]transport.Conn, len(s.clients))
	for i := range serverConns {
		select {
		case serverConns[i] = <-accepted:
		case <-time.After(5 * time.Second):
			t.Fatal("timed out accepting vehicles")
		}
		if fusion != nil {
			serverConns[i] = fusion(serverConns[i])
		}
	}
	report, err := s.server.Run(serverConns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return report
}

func TestDistributedOverTCP(t *testing.T) {
	if report := runOverTCP(t, buildSession(t, 10, 3, 0), nil, nil, nil); report.Rounds != 3 {
		t.Errorf("rounds = %d", report.Rounds)
	}
}

// wordsRecorder notes, for each upload received on the fusion side and by
// the vehicle it names, the Words it declares — over TCP, the words its
// frame carried — how many of the values after them are neither +0 nor
// 1.0, and the bytes the transport accounts it at.
type wordsRecorder struct {
	transport.Conn
	mu      *sync.Mutex
	uploads map[int][]uploadShape
}

type uploadShape struct{ words, literals, bytes int }

func (c wordsRecorder) Recv() (*protocol.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Upload != nil {
		u := uploadShape{words: m.Upload.Words, bytes: protocol.EncodedSizeVersion(m, protocol.Version)}
		for _, v := range m.Upload.Values[u.words:] {
			if b := math.Float64bits(v); b != 0 && b != math.Float64bits(1) {
				u.literals++
			}
		}
		c.mu.Lock()
		c.uploads[m.Upload.VehicleID] = append(c.uploads[m.Upload.VehicleID], u)
		c.mu.Unlock()
	}
	return m, err
}

func (c wordsRecorder) Flush() error         { return transport.Flush(c.Conn) }
func (c wordsRecorder) SetWireVersion(v int) { transport.SetWireVersion(c.Conn, v) }

// TestUploadWordsOverTCP runs the upload codec inside a session. The pipe
// fabric never encodes, so the pipe-based oracle tests never see the
// words and class map an upload travels as; here honest vehicles share a
// TCP session with a ConstantLie, a SignFlipScale and a NaN-half vehicle,
// and the session must end on the FinalParams and flagged set of the same
// session over pipes. An honest frame carries all 2·S verification halves
// as words, and so does the constant liar's (5 is a word); the
// sign-flipped halves (negative or −0) and the NaN half end the run at
// once. Every upload is accounted at 4 + 18 + 4·words + ⌈t/4⌉ + 8·L bytes
// for its t = count − words tail, L of whose values are neither +0 nor
// 1.0, and an honest one, whose estimates the activation clamps, at less
// than the 4 + 18 + 4·words + 8·t of revision 6.
func TestUploadWordsOverTCP(t *testing.T) {
	const vehicles, rounds = 16, 2 // K = 8: up to four lies corrected
	const constant, flipped, nanHalf = 3, 7, 10
	build := func() *session {
		s := buildSession(t, vehicles, rounds, 0)
		s.clients[constant].Corrupt = adversary.ConstantLie{Value: 5}
		s.clients[flipped].Corrupt = adversary.SignFlipScale{Scale: 3}
		return s
	}
	wrap := func(i int, c transport.Conn) transport.Conn {
		if i != nanHalf {
			return c
		}
		return &hostileConn{Conn: c, id: i, rewrite: func(_ int, values []float64) { values[0] = math.NaN() }}
	}
	piped := build()
	want := runWrapped(t, piped, wrap, -1)
	words := 2 * piped.server.scheme.Slots()
	count := piped.server.scheme.UploadLen()

	rec := wordsRecorder{mu: &sync.Mutex{}, uploads: map[int][]uploadShape{}}
	got := runOverTCP(t, build(), nil, wrap, func(c transport.Conn) transport.Conn {
		rec.Conn = c
		return rec
	})
	if !sameBits(got.FinalParams, want.FinalParams) {
		t.Error("TCP session's FinalParams differ from the same session over pipes")
	}
	if flagged := []int{constant, flipped, nanHalf}; !slices.Equal(got.SuspectedMalicious, flagged) || !slices.Equal(want.SuspectedMalicious, flagged) {
		t.Errorf("flagged %v over TCP, %v over pipes; want %v", got.SuspectedMalicious, want.SuspectedMalicious, flagged)
	}
	for id := 0; id < vehicles; id++ {
		wantWords := words
		if id == flipped || id == nanHalf {
			wantWords = 0
		}
		if len(rec.uploads[id]) != rounds {
			t.Errorf("vehicle %d: %d uploads received, want %d", id, len(rec.uploads[id]), rounds)
		}
		for r, u := range rec.uploads[id] {
			if u.words != wantWords {
				t.Errorf("vehicle %d upload %d carried %d words, want %d", id, r+1, u.words, wantWords)
			}
			tail := count - u.words
			if want := 4 + 18 + 4*u.words + (tail+3)/4 + 8*u.literals; u.bytes != want {
				t.Errorf("vehicle %d upload %d accounted at %d bytes, want %d (%d words, %d of %d tail values literals)", id, r+1, u.bytes, want, u.words, u.literals, tail)
			}
			if honest := id != constant && id != flipped && id != nanHalf; honest && u.bytes >= 4+18+4*u.words+8*tail {
				t.Errorf("honest vehicle %d upload %d: %d bytes, no fewer than revision 6's %d", id, r+1, u.bytes, 4+18+4*u.words+8*tail)
			}
		}
	}
}

// relabelConn rewrites the vehicle ID every upload names.
type relabelConn struct {
	transport.Conn
	as int
}

func (c relabelConn) Send(m *protocol.Message) error {
	if m.Upload != nil {
		up := *m.Upload
		up.VehicleID = c.as
		m = &protocol.Message{Upload: &up}
	}
	return c.Conn.Send(m)
}

// TestUploadAttributedToItsConnection: an upload counts for the vehicle
// that handshaked the connection it arrived on and for nobody else. The
// connection of vehicle 0 (i) sends a frame of the retired gather kind
// (binary kind 5) packing an upload for every vehicle, (ii) sends the
// same as a JSON {"gather":…} envelope, (iii) uploads honestly but names
// vehicle 3. (i) and (ii) cost that connection — one receive error, the
// model of the same session with vehicle 0 crashed, nobody flagged — and
// (iii) fills vehicle 0's own slot: the model of the all-honest session.
func TestUploadAttributedToItsConnection(t *testing.T) {
	const vehicles, rounds = 10, 2
	fresh := func() *session { return buildSession(t, vehicles, rounds, 0) }
	// Vehicle 0 still owes round 1 once its connection is lost, so these
	// sessions wait out a deadline for it, short but long enough for the
	// nine others' uploads under a loaded -race run. (A wait budget would
	// close on them before the loss is read about as often as after.)
	lost := func() *session {
		s := fresh()
		s.server.cfg.RoundTimeout = time.Second
		return s
	}
	// playVehicle0 handshakes as vehicle 0 and reads up to round 1's
	// broadcast; then forged (nil: nothing) is written and the socket
	// closed.
	playVehicle0 := func(forged []byte) map[int]func(net.Conn) {
		return map[int]func(net.Conn){0: func(sock net.Conn) {
			hello := &protocol.Message{Hello: &protocol.Hello{Version: protocol.Version, VehicleID: 0}}
			if err := protocol.Write(sock, hello); err != nil {
				t.Errorf("vehicle 0 hello: %v", err)
				return
			}
			for {
				m, err := protocol.Read(sock)
				if err != nil {
					t.Errorf("vehicle 0 awaiting broadcast: %v", err)
					return
				}
				if m.Broadcast != nil {
					break
				}
			}
			if _, err := sock.Write(forged); err != nil {
				t.Errorf("vehicle 0 forged frame: %v", err)
			}
		}}
	}
	frame := func(body []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
		return append(out, body...)
	}

	crashed := runOverTCP(t, lost(), playVehicle0(nil), nil, nil)
	if crashed.RecvErrors != 1 || crashed.Rounds != rounds {
		t.Fatalf("crashed-vehicle baseline: %+v", crashed)
	}

	// One forged upload per vehicle, of the right length, all lying.
	lie := make([]float64, fresh().server.scheme.UploadLen())
	for i := range lie {
		lie[i] = 5
	}
	kind5 := binary.LittleEndian.AppendUint32([]byte{0xB3, 5}, vehicles)
	var uploads []string
	for id := 0; id < vehicles; id++ {
		kind5 = binary.LittleEndian.AppendUint32(kind5, 1) // round
		kind5 = binary.LittleEndian.AppendUint32(kind5, uint32(id))
		kind5 = binary.LittleEndian.AppendUint32(kind5, uint32(len(lie)))
		for _, v := range lie {
			kind5 = binary.LittleEndian.AppendUint64(kind5, math.Float64bits(v))
		}
		values, _ := json.Marshal(lie)
		uploads = append(uploads, fmt.Sprintf(`{"round":1,"vehicle_id":%d,"values":%s}`, id, values))
	}
	envelope := []byte(`{"gather":{"uploads":[` + strings.Join(uploads, ",") + `]}}`)
	for name, forged := range map[string][]byte{"binary kind 5": frame(kind5), "JSON envelope": frame(envelope)} {
		got := runOverTCP(t, lost(), playVehicle0(forged), nil, nil)
		if got.RecvErrors != 1 {
			t.Errorf("%s: RecvErrors = %d, want the forged frame to be the connection's one terminal error", name, got.RecvErrors)
		}
		if got.Rounds != rounds || got.Stragglers != 0 || len(got.SuspectedMalicious) != 0 {
			t.Errorf("%s: session not clean: %+v", name, got)
		}
		if !sameBits(got.FinalParams, crashed.FinalParams) {
			t.Errorf("%s: FinalParams differ from the session with vehicle 0 crashed — a forged upload was filed", name)
		}
	}

	honest := fresh().run(t)
	relabelled := fresh()
	relabelled.vconns[0] = relabelConn{relabelled.vconns[0], 3}
	got := relabelled.run(t)
	if got.RecvErrors != 0 || got.Stragglers != 0 || len(got.SuspectedMalicious) != 0 {
		t.Errorf("upload naming vehicle 3: session not clean: %+v", got)
	}
	if !sameBits(got.FinalParams, honest.FinalParams) {
		t.Error("upload naming vehicle 3: FinalParams differ from the honest session's — it was not filed under its own connection")
	}
}

// oldBuild makes the vehicle behind it announce the previous protocol
// revision.
type oldBuild struct{ transport.Conn }

func (c oldBuild) Send(m *protocol.Message) error {
	if m.Hello != nil {
		h := *m.Hello
		h.Version = protocol.Version - 1
		m = &protocol.Message{Hello: &h}
	}
	return c.Conn.Send(m)
}

// TestRefusedHandshakeAnswered: a hello below protocol.Version is answered
// with an Error frame saying so wherever a hello is read — Server.Run, a
// rejoin's handshake, a Fleet — and a vehicle that gets that answer gives
// up at once instead of redialling.
func TestRefusedHandshakeAnswered(t *testing.T) {
	cfgs, clients := fleetScenario(t, []string{"main"}, 2, 1)
	cfg := cfgs["main"]
	cfg.RoundTimeout = 200 * time.Millisecond
	reason := fmt.Sprintf("protocol revision %d too old, need ≥ %d", protocol.Version-1, protocol.Version)
	refused := func(path string, conn transport.Conn) {
		t.Helper()
		if m, err := conn.Recv(); err != nil || m.Error == nil || m.Error.Reason != reason {
			t.Errorf("%s answered an old hello with %+v, %v; want Error %q", path, m, err, reason)
		}
	}
	oldHello := func(conn transport.Conn) {
		t.Helper()
		if err := conn.Send(&protocol.Message{Hello: &protocol.Hello{Version: protocol.Version - 1}}); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fusionEnd, vehicleEnd := transport.Pipe()
	oldHello(vehicleEnd)
	otherEnd, other := transport.Pipe()
	if err := other.Send(&protocol.Message{Hello: &protocol.Hello{Version: protocol.Version, VehicleID: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run([]transport.Conn{fusionEnd, otherEnd}); err == nil || !strings.Contains(err.Error(), reason) {
		t.Errorf("Run with an old peer returned %v", err)
	}
	refused("Server.Run", vehicleEnd)

	fusionEnd, vehicleEnd = transport.Pipe()
	oldHello(vehicleEnd)
	rejoin(srv, fusionEnd)
	refused("rejoin", vehicleEnd)

	fleet, err := NewFleet(FleetConfig{Sessions: map[string]ServerConfig{"main": cfg}})
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewPipeFabric()
	serveErr := make(chan error, 1)
	go func() { serveErr <- fleet.Serve(fab) }()
	// The whole complement dials before any answer is read, so that a
	// fleet which admits old hellos starts the session and says so.
	var old []transport.Conn
	for id := range clients["main"] {
		old = append(old, dialHello(t, fab, protocol.Version-1, "main", id))
	}
	for _, conn := range old {
		refused("Fleet", conn)
	}

	var wg sync.WaitGroup
	for _, cc := range clients["main"] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dials := 0
			err := RunVehicleRetry(cc, RetryConfig{
				Dial: func() (transport.Conn, error) {
					dials++
					c, err := fab.Dial()
					return oldBuild{c}, err
				},
				Sleeper: &obs.ManualSleeper{},
			})
			if err == nil || IsTransient(err) || !strings.Contains(err.Error(), reason) || dials != 1 {
				t.Errorf("old-build vehicle %d: %d dials, error %v; want one dial and a permanent error carrying %q",
					cc.VehicleID, dials, err, reason)
			}
		}()
	}
	wg.Wait()
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve after close: %v", err)
	}
}

func TestServerValidation(t *testing.T) {
	refX := make([][]float64, 8)
	for i := range refX {
		refX[i] = make([]float64, traffic.NumFeatures)
	}
	base := ServerConfig{
		FL:               fl.Config{InputSize: traffic.NumFeatures, LocalEpochs: 1, LocalRate: 0.1, DistillEpochs: 1, DistillRate: 0.1},
		Scheme:           core.SchemeConfig{NumVehicles: 10, NumBatches: 8, Degree: 1},
		RefX:             refX,
		ActivationCoeffs: []float64{0, 0.5},
		Rounds:           1,
	}
	cfg := base
	cfg.Rounds = 0
	if _, err := NewServer(cfg); err == nil {
		t.Error("zero rounds accepted")
	}
	cfg = base
	cfg.ActivationCoeffs = nil
	if _, err := NewServer(cfg); err == nil {
		t.Error("missing activation accepted")
	}
	cfg = base
	cfg.WaitBudget = -1
	if _, err := NewServer(cfg); err == nil {
		t.Error("a negative wait budget (a close at exactly K) accepted")
	}
	srv, err := NewServer(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(nil); err == nil {
		t.Error("wrong connection count accepted")
	}
}

func TestRunVehicleValidation(t *testing.T) {
	a, _ := transport.Pipe()
	if err := RunVehicle(a, ClientConfig{VehicleID: 0}); err == nil {
		t.Error("vehicle with no data accepted")
	}
	_ = nn.Sample{}
}

// silentVehicle handshakes and then never uploads — a permanent straggler.
func silentVehicle(t *testing.T, conn transport.Conn, id int) {
	t.Helper()
	if err := conn.Send(&protocol.Message{Hello: &protocol.Hello{Version: protocol.Version, VehicleID: id}}); err != nil {
		t.Errorf("silent vehicle hello: %v", err)
		return
	}
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		if m.Finished != nil {
			return
		}
		// Swallow Setup and Broadcasts without ever answering.
	}
}

func TestDistributedStragglerTimeout(t *testing.T) {
	s := buildSession(t, 20, 3, 0)
	// Shorten the timeout so the silent vehicle doesn't stall the test —
	// but not below what a loaded 1-core -race run needs for the honest
	// uploads, or they'd be miscounted as stragglers too.
	s.server.cfg.RoundTimeout = time.Second

	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		if i == 5 {
			go func(i int) {
				defer wg.Done()
				silentVehicle(t, s.vconns[i], i)
			}(i)
			continue
		}
		go func(i int) {
			defer wg.Done()
			if err := RunVehicle(s.vconns[i], s.clients[i]); err != nil {
				t.Errorf("vehicle %d: %v", i, err)
			}
		}(i)
	}
	report, err := s.server.Run(s.conns)
	if err != nil {
		t.Fatal(err)
	}
	if report.Rounds != 3 {
		t.Errorf("rounds = %d", report.Rounds)
	}
	// The silent vehicle is a straggler every round; the coded
	// aggregation must not flag it as malicious (absence is not a lie).
	if report.Stragglers != 3 {
		t.Errorf("stragglers = %d, want 3", report.Stragglers)
	}
	if len(report.SuspectedMalicious) != 0 {
		t.Errorf("straggler flagged as malicious: %v", report.SuspectedMalicious)
	}
	// Unblock the silent vehicle's Recv loop.
	for i := range s.conns {
		s.conns[i].Close()
	}
	wg.Wait()
}

func TestDistributedVehicleCrashMidSession(t *testing.T) {
	s := buildSession(t, 20, 3, 0)
	s.server.cfg.RoundTimeout = 300 * time.Millisecond
	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		if i == 7 {
			// Crashes after the handshake + first broadcast.
			go func(i int) {
				defer wg.Done()
				conn := s.vconns[i]
				if err := conn.Send(&protocol.Message{Hello: &protocol.Hello{Version: protocol.Version, VehicleID: i}}); err != nil {
					t.Errorf("crasher hello: %v", err)
					return
				}
				if _, err := conn.Recv(); err != nil { // Setup
					return
				}
				if _, err := conn.Recv(); err != nil { // Broadcast round 1
					return
				}
				conn.Close()
			}(i)
			continue
		}
		go func(i int) {
			defer wg.Done()
			if err := RunVehicle(s.vconns[i], s.clients[i]); err != nil {
				t.Errorf("vehicle %d: %v", i, err)
			}
		}(i)
	}
	report, err := s.server.Run(s.conns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if report.Rounds != 3 {
		t.Errorf("rounds = %d, want 3 despite the crashed vehicle", report.Rounds)
	}
}
