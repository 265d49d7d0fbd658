package node

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/protocol"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// fleetScenario builds one independent ServerConfig plus vehicle client
// configs per session ID. Every session gets its own dataset and seeds
// (derived from its index) so per-session aggregates are distinguishable
// — a routing bug that crosses sessions cannot produce matching params.
func fleetScenario(t testing.TB, ids []string, vehicles, rounds int) (map[string]ServerConfig, map[string][]ClientConfig) {
	t.Helper()
	refDS, err := traffic.Generate(traffic.GenConfig{Rows: 8 * 24, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	refX := refDS.Features()
	act := approx.SymmetricSigmoid()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(act.F, -2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make(map[string]ServerConfig, len(ids))
	clients := make(map[string][]ClientConfig, len(ids))
	for j, id := range ids {
		seed := int64(300 + 10*j)
		ds, err := traffic.Generate(traffic.GenConfig{Rows: 600, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		parts, err := ds.PartitionIID(vehicles, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[id] = ServerConfig{
			FL: fl.Config{
				InputSize:     traffic.NumFeatures,
				LocalEpochs:   2,
				LocalRate:     0.2,
				DistillEpochs: 8,
				DistillRate:   0.2,
				ServerStep:    0.5,
				Seed:          seed + 2,
			},
			// NumBatches = vehicles keeps the recover threshold K = V, so
			// even one-vehicle sessions are schedulable (192 ref rows divide
			// evenly by every fleet size used here).
			Scheme: core.SchemeConfig{
				NumVehicles: vehicles, NumBatches: vehicles, Degree: 1, Seed: seed + 3,
			},
			RefX:             refX,
			ActivationCoeffs: p,
			Rounds:           rounds,
			RoundTimeout:     10 * time.Second,
		}
		cc := make([]ClientConfig, vehicles)
		for i := 0; i < vehicles; i++ {
			cc[i] = ClientConfig{VehicleID: i, SessionID: id, Data: parts[i], Seed: seed + int64(50+i)}
		}
		clients[id] = cc
	}
	return cfgs, clients
}

// runFleetVehicles drives every session's vehicles over the fabric and
// reports the first vehicle error.
func runFleetVehicles(fab *transport.PipeFabric, clients map[string][]ClientConfig, ids []string) error {
	var all []ClientConfig
	for _, id := range ids {
		all = append(all, clients[id]...)
	}
	return startFleetVehicles(fab, all)()
}

// startFleetVehicles dials and runs each vehicle on its own goroutine; the
// returned wait blocks until all have returned and reports the first
// vehicle error.
func startFleetVehicles(fab *transport.PipeFabric, ccs []ClientConfig) (wait func() error) {
	errCh := make(chan error, len(ccs))
	var wg sync.WaitGroup
	for _, cc := range ccs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := fab.Dial()
			if err != nil {
				errCh <- fmt.Errorf("vehicle %s/%d dial: %w", cc.SessionID, cc.VehicleID, err)
				return
			}
			defer conn.Close()
			if err := RunVehicle(conn, cc); err != nil {
				errCh <- fmt.Errorf("vehicle %s/%d: %w", cc.SessionID, cc.VehicleID, err)
			}
		}()
	}
	return func() error {
		wg.Wait()
		close(errCh)
		return <-errCh
	}
}

// TestFleetMultiSessionRouting: three concurrent sessions behind one
// fabric, one of them reached through the default-session route. Every
// session completes, and the routed session's final parameters are
// bit-identical to the same session run solo on a dedicated server.
func TestFleetMultiSessionRouting(t *testing.T) {
	ids := []string{"alpha", "beta", "gamma"}
	const vehicles, rounds = 3, 2
	cfgs, clients := fleetScenario(t, ids, vehicles, rounds)
	// Session gamma is the default: its vehicles omit the session ID.
	gc := clients["gamma"]
	for i := range gc {
		gc[i].SessionID = ""
	}

	fleet, err := NewFleet(FleetConfig{Sessions: cfgs, DefaultSession: "gamma"})
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewPipeFabric()
	serveErr := make(chan error, 1)
	go func() { serveErr <- fleet.Serve(fab) }()
	if err := runFleetVehicles(fab, clients, ids); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("fleet serve: %v", err)
	}

	results := fleet.Results()
	for _, id := range ids {
		r := results[id]
		if r.Err != nil {
			t.Fatalf("session %s: %v", id, r.Err)
		}
		if r.Report == nil || r.Report.Rounds != rounds {
			t.Fatalf("session %s report = %+v", id, r.Report)
		}
	}
	// Distinct sessions must have produced distinct models.
	pa, pb := results["alpha"].Report.FinalParams, results["beta"].Report.FinalParams
	same := len(pa) == len(pb)
	for i := range pa {
		if !same || pa[i] != pb[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("sessions alpha and beta produced identical params — routing crossed sessions?")
	}

	// Bit-identity: session beta solo, on a dedicated server over plain
	// pipes, must match the fleet run exactly.
	solo, err := NewServer(cfgs["beta"])
	if err != nil {
		t.Fatal(err)
	}
	var sconns []transport.Conn
	var wg sync.WaitGroup
	for i := 0; i < vehicles; i++ {
		sv, vc := transport.Pipe()
		sconns = append(sconns, sv)
		cc := clients["beta"][i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer vc.Close()
			if err := RunVehicle(vc, cc); err != nil {
				t.Errorf("solo vehicle %d: %v", cc.VehicleID, err)
			}
		}()
	}
	soloReport, err := solo.Run(sconns)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	fp, sp := results["beta"].Report.FinalParams, soloReport.FinalParams
	if len(fp) != len(sp) {
		t.Fatalf("param length %d vs solo %d", len(fp), len(sp))
	}
	for i := range fp {
		if fp[i] != sp[i] {
			t.Fatalf("param %d: fleet %v vs solo %v — fleet run not bit-identical", i, fp[i], sp[i])
		}
	}

	st := fleet.Status()
	if st.Live != 0 || st.Committed != 0 {
		t.Fatalf("drained fleet status live=%d committed=%d", st.Live, st.Committed)
	}
	if st.Admitted != len(ids)*vehicles {
		t.Fatalf("admitted %d, want %d", st.Admitted, len(ids)*vehicles)
	}
	for _, ss := range st.Sessions {
		if ss.State != "done" {
			t.Fatalf("session %s state %q after serve returned", ss.ID, ss.State)
		}
	}
}

// waitFleet spins until the fleet snapshot satisfies cond; the go test
// timeout bounds a condition that never comes true.
func waitFleet(f *Fleet, cond func(FleetStatus) bool) {
	for !cond(f.Status()) {
		runtime.Gosched()
	}
}

// dialHello opens a raw fabric connection and sends one hello.
func dialHello(t *testing.T, fab *transport.PipeFabric, ver int, sessionID string, vid int) transport.Conn {
	t.Helper()
	conn, err := fab.Dial()
	if err != nil {
		t.Fatal(err)
	}
	err = conn.Send(&protocol.Message{Hello: &protocol.Hello{
		Version: ver, VehicleID: vid, SessionID: sessionID,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestFleetAdmissionRejectedCleanly: every rejection class is answered
// with an explicit Admission frame — never a silent hang or a bare
// connection reset.
func TestFleetAdmissionRejectedCleanly(t *testing.T) {
	cfgs, clients := fleetScenario(t, []string{"main"}, 2, 1)
	fleet, err := NewFleet(FleetConfig{Sessions: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewPipeFabric()
	serveErr := make(chan error, 1)
	go func() { serveErr <- fleet.Serve(fab) }()

	// Unknown session: Admission with a reason, no retry hint.
	conn := dialHello(t, fab, protocol.Version, "nope", 0)
	m, err := conn.Recv()
	if err != nil || m.Admission == nil {
		t.Fatalf("unknown-session answer = %+v, %v", m, err)
	}
	if m.Admission.Queued || m.Admission.Retry || !strings.Contains(m.Admission.Reason, "nope") {
		t.Fatalf("unknown-session admission = %+v", m.Admission)
	}
	_ = conn.Close()

	// No session ID and no default session configured.
	conn = dialHello(t, fab, protocol.Version, "", 0)
	m, err = conn.Recv()
	if err != nil || m.Admission == nil || m.Admission.Retry || m.Admission.Reason == "" {
		t.Fatalf("no-default-session answer = %+v, %v", m, err)
	}
	_ = conn.Close()

	// Out-of-range vehicle ID for a known session.
	conn = dialHello(t, fab, protocol.Version, "main", 7)
	m, err = conn.Recv()
	if err != nil || m.Admission == nil || m.Admission.Retry {
		t.Fatalf("out-of-range answer = %+v, %v", m, err)
	}
	_ = conn.Close()

	// Duplicate vehicle ID while gathering: first conn holds the slot,
	// second is refused. Wait for the first admission to land — the two
	// handshakes would otherwise race for the slot.
	held := dialHello(t, fab, protocol.Version, "main", 0)
	waitFleet(fleet, func(st FleetStatus) bool { return st.Admitted == 1 })
	dup := dialHello(t, fab, protocol.Version, "main", 0)
	m, err = dup.Recv()
	if err != nil || m.Admission == nil || !strings.Contains(m.Admission.Reason, "already connected") {
		t.Fatalf("duplicate answer = %+v, %v", m, err)
	}
	_ = dup.Close()

	// The vehicle-facing view: RunVehicle against a bad session ID fails
	// with a permanent, reasoned error rather than hanging.
	cc := clients["main"][1]
	cc.SessionID = "missing"
	vconn, err := fab.Dial()
	if err != nil {
		t.Fatal(err)
	}
	verr := RunVehicle(vconn, cc)
	if verr == nil || IsTransient(verr) || !strings.Contains(verr.Error(), "missing") {
		t.Fatalf("vehicle reject error = %v", verr)
	}
	_ = vconn.Close()

	st := fleet.Status()
	if st.Rejected != 5 {
		t.Fatalf("rejected tally %d, want 5", st.Rejected)
	}
	_ = held.Close()
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve after close: %v", err)
	}
}

// TestFleetBudgetQueueing: with budget for only one session at a time,
// the second session's vehicles park in the admission queue (answered
// with an explicit Admission{Queued}) and are admitted when the first
// session completes and releases its chunk. Both sessions finish.
func TestFleetBudgetQueueing(t *testing.T) {
	ids := []string{"s0", "s1"}
	const vehicles, rounds = 2, 2
	cfgs, clients := fleetScenario(t, ids, vehicles, rounds)
	fleet, err := NewFleet(FleetConfig{
		Sessions:   cfgs,
		MaxConns:   vehicles, // one session's complement — the other must wait
		QueueDepth: 2 * vehicles,
	})
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewPipeFabric()
	serveErr := make(chan error, 1)
	go func() { serveErr <- fleet.Serve(fab) }()
	// Gate s0 so the budget pressure is real: its first vehicle reserves
	// the whole budget, every s1 vehicle dials and parks while s0 cannot
	// start, and only then does s0's last vehicle complete it. Ungated, s0
	// could finish before s1 dialled and nobody would queue.
	s0 := clients["s0"]
	waits := []func() error{startFleetVehicles(fab, s0[:1])}
	waitFleet(fleet, func(st FleetStatus) bool { return st.Committed == vehicles })
	waits = append(waits, startFleetVehicles(fab, clients["s1"]))
	waitFleet(fleet, func(st FleetStatus) bool { return st.Queued == vehicles })
	waits = append(waits, startFleetVehicles(fab, s0[1:]))
	for _, wait := range waits {
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("fleet serve: %v", err)
	}
	results := fleet.Results()
	for _, id := range ids {
		if r := results[id]; r.Err != nil || r.Report == nil || r.Report.Rounds != rounds {
			t.Fatalf("session %s: report=%+v err=%v", id, r.Report, r.Err)
		}
	}
	st := fleet.Status()
	if st.QueuedTotal < vehicles {
		t.Fatalf("queued total %d, want >= %d — s1's vehicles did not all park", st.QueuedTotal, vehicles)
	}
	if st.Admitted != 2*vehicles {
		t.Fatalf("admitted %d, want %d", st.Admitted, 2*vehicles)
	}
}

// stallQueued is a pipe-fabric listener whose connections hold every
// Admission{Queued} send until release is closed, counting each one into
// parked — a peer slow to take its queue answer.
type stallQueued struct {
	*transport.PipeFabric
	release <-chan struct{}
	parked  *sync.WaitGroup
}

func (l *stallQueued) Accept() (transport.Conn, error) {
	c, err := l.PipeFabric.Accept()
	if err != nil {
		return nil, err
	}
	return &stallQueuedConn{Conn: c, l: l}, nil
}

type stallQueuedConn struct {
	transport.Conn
	l *stallQueued
}

func (c *stallQueuedConn) Send(m *protocol.Message) error {
	if m.Admission != nil && m.Admission.Queued {
		c.l.parked.Done()
		<-c.l.release
	}
	return c.Conn.Send(m)
}

// TestFleetQueuedAnswerPrecedesSetup: budget that frees while a parked
// connection's Admission{Queued} is still being sent does not seat that
// connection until the answer is out, so its vehicle reads Queued before
// Setup. Before the fix the drain seated it at once, the Setup overtook
// the answer, and the vehicle met Queued inside its round loop
// ("unexpected message admission").
func TestFleetQueuedAnswerPrecedesSetup(t *testing.T) {
	const vehicles = 2
	cfgs, clients := fleetScenario(t, []string{"s0", "s1"}, vehicles, 1)
	fleet, err := NewFleet(FleetConfig{Sessions: cfgs, MaxConns: vehicles, QueueDepth: vehicles})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var parked sync.WaitGroup
	parked.Add(vehicles)
	fab := transport.NewPipeFabric()
	serveErr := make(chan error, 1)
	go func() { serveErr <- fleet.Serve(&stallQueued{PipeFabric: fab, release: release, parked: &parked}) }()

	s0 := clients["s0"]
	waits := []func() error{startFleetVehicles(fab, s0[:1])}
	waitFleet(fleet, func(st FleetStatus) bool { return st.Committed == vehicles })
	waits = append(waits, startFleetVehicles(fab, clients["s1"]))
	parked.Wait() // both s1 vehicles queued, their answers stalled
	waits = append(waits, startFleetVehicles(fab, s0[1:]))
	// s0 runs, completes and drains the queue. A drain that does not wait
	// for the stalled answers seats s1 and starts it; give it the chance.
	state := func(id string) string {
		for _, ss := range fleet.Status().Sessions {
			if ss.ID == id {
				return ss.State
			}
		}
		return ""
	}
	waitFleet(fleet, func(FleetStatus) bool { return state("s0") == "done" })
	grace := time.After(100 * time.Millisecond)
wait:
	for state("s1") != "running" {
		select {
		case <-grace:
			break wait
		default:
			runtime.Gosched()
		}
	}
	if got := state("s1"); got != "gathering" {
		t.Errorf("s1 is %s while its vehicles' Queued answers are unsent, want gathering", got)
	}
	close(release)
	for _, wait := range waits {
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("fleet serve: %v", err)
	}
	for id, r := range fleet.Results() {
		if r.Err != nil || r.Report == nil || r.Report.Rounds != 1 {
			t.Fatalf("session %s: report=%+v err=%v", id, r.Report, r.Err)
		}
	}
}

// TestFleetBudgetRejectsWhenQueueDisabled: with no queue, a session that
// cannot reserve budget is refused with the retry hint, and the refusal
// is the explicit Admission frame.
func TestFleetBudgetRejectsWhenQueueDisabled(t *testing.T) {
	cfgs, _ := fleetScenario(t, []string{"s0", "s1"}, 2, 1)
	fleet, err := NewFleet(FleetConfig{Sessions: cfgs, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewPipeFabric()
	serveErr := make(chan error, 1)
	go func() { serveErr <- fleet.Serve(fab) }()

	// First conn reserves s0's full complement; s1 then cannot reserve.
	held := dialHello(t, fab, protocol.Version, "s0", 0)
	waitFleet(fleet, func(st FleetStatus) bool { return st.Committed == 2 })
	starved := dialHello(t, fab, protocol.Version, "s1", 0)
	m, err := starved.Recv()
	if err != nil || m.Admission == nil {
		t.Fatalf("starved answer = %+v, %v", m, err)
	}
	if !m.Admission.Retry || m.Admission.Queued {
		t.Fatalf("starved admission = %+v, want retry-reject", m.Admission)
	}
	_ = starved.Close()
	_ = held.Close()
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve after close: %v", err)
	}
	if st := fleet.Status(); st.Rejected != 1 {
		t.Fatalf("rejected tally %d, want 1", st.Rejected)
	}
}

// TestFleetLateDialerGetsFinished: a vehicle reconnecting after its
// session completed is answered with Finished, whichever side of the
// running→done transition its hello lands on.
func TestFleetLateDialerGetsFinished(t *testing.T) {
	cfgs, clients := fleetScenario(t, []string{"fast", "idle"}, 2, 1)
	fleet, err := NewFleet(FleetConfig{Sessions: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewPipeFabric()
	serveErr := make(chan error, 1)
	go func() { serveErr <- fleet.Serve(fab) }()

	// Run session "fast" to completion; "idle" never fills, keeping the
	// fleet (and its listener) alive for the late dial below.
	if err := runFleetVehicles(fab, clients, []string{"fast"}); err != nil {
		t.Fatal(err)
	}

	late := dialHello(t, fab, protocol.Version, "fast", 0)
	m, err := late.Recv()
	if err != nil {
		t.Fatal(err)
	}
	// The hello may land while the session is still technically running
	// (Server.Rejoin then answers Finished itself) or after it is marked
	// done (the fleet answers directly) — both must yield Finished,
	// possibly after revival frames sent during teardown.
	for i := 0; m.Finished == nil && i < 8; i++ {
		if m, err = late.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Finished == nil || m.Finished.Rounds != 1 {
		t.Fatalf("late dialer answer = %+v", m)
	}
	_ = late.Close()
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
	<-serveErr
}
