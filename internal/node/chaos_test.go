package node

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// chaosRun executes a session with the vehicle side of every connection
// wrapped by the injector. Vehicles in retry run under RunVehicleRetry
// with a redial that rejoins the fusion centre over a fresh pipe — the
// restart-and-rejoin process fault, end to end.
//
// When the spec plants crashes, the first vehicle outside retry sends
// through a rejoinGate, which makes "the crashed vehicle's upload is in
// its crash round's aggregate" a property of the run instead of a race
// (see rejoinGate).
func chaosRun(t *testing.T, s *session, inj *chaos.Injector, retry map[int]bool) *Report {
	t.Helper()
	gated := -1
	if len(inj.Spec().Crashes) > 0 {
		for gated = 0; retry[gated]; gated++ {
		}
	}
	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		if retry[i] {
			first := true
			dial := func() (transport.Conn, error) {
				if first {
					first = false
					return inj.Wrap(i, s.vconns[i]), nil
				}
				serverEnd, vehicleEnd := transport.Pipe()
				s.server.Rejoin(serverEnd)
				return inj.Wrap(i, vehicleEnd), nil
			}
			go func(i int) {
				defer wg.Done()
				err := RunVehicleRetry(s.clients[i], RetryConfig{
					Dial:    dial,
					Sleeper: &obs.ManualSleeper{},
				})
				if err != nil {
					t.Errorf("retry vehicle %d: %v", i, err)
				}
			}(i)
			continue
		}
		conn := inj.Wrap(i, s.vconns[i])
		if i == gated {
			conn = &rejoinGate{t: t, inner: conn, server: s.server, crashes: inj.Spec().Crashes}
		}
		go func(i int) {
			defer wg.Done()
			if err := RunVehicle(conn, s.clients[i]); err != nil {
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

// rejoinGate holds one healthy vehicle's upload for a round in which
// another vehicle crashes until the fusion centre has revived every
// vehicle crashed so far (Status().Rejoins). Both engines close a round
// as soon as nobody alive still owes an upload — a dead vehicle is not
// waited for — so without the gate the crashed vehicle's resend makes its
// crash round only if Server.Rejoin wins a race against the other
// vehicles' uploads; when it loses, that round averages the learning
// channel over one vehicle fewer (or the session ends before the rejoin)
// and the run is no longer comparable bit for bit. With the gate the
// round stays open, the rejoin re-arms the crashed vehicle as
// outstanding, and the round closes on both uploads.
type rejoinGate struct {
	t       *testing.T
	inner   transport.Conn
	server  *Server
	crashes []chaos.Crash
}

func (g *rejoinGate) Send(m *protocol.Message) error {
	if m.Upload != nil {
		crashRound, want := false, 0
		for _, c := range g.crashes {
			if c.Round == m.Upload.Round {
				crashRound = true
			}
			if c.Round <= m.Upload.Round {
				want++
			}
		}
		// Poll: the server exposes no rejoin event. Bounded so a crash that
		// never rejoins fails the test instead of hanging it.
		for waited := 0; crashRound && g.server.Status().Rejoins < want; waited++ {
			if waited == 100000 {
				g.t.Errorf("round %d: %d of %d rejoins after 20 s", m.Upload.Round, g.server.Status().Rejoins, want)
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return g.inner.Send(m)
}

func (g *rejoinGate) Recv() (*protocol.Message, error) { return g.inner.Recv() }
func (g *rejoinGate) Close() error                     { return g.inner.Close() }
func (g *rejoinGate) Flush() error                     { return transport.Flush(g.inner) }
func (g *rejoinGate) SetWireVersion(v int)             { transport.SetWireVersion(g.inner, v) }

// sameBits reports bit-identity of two float64 vectors.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestChaosRecoveryBitIdentical pins the tentpole invariant: a fault
// pattern the recovery machinery tolerates — corrupted upload frames
// (detected by checksum, retransmitted from the vehicle's cache) plus a
// crash-and-rejoin — yields a final model bit-identical to the
// fault-free run, at every worker count, with identical recovery
// counters across worker counts.
func TestChaosRecoveryBitIdentical(t *testing.T) {
	const vehicles, rounds = 20, 3
	// before-upload crash: the upload reaches the fusion centre through
	// the rejoin resend, and chaosRun's rejoinGate keeps round 2 open until
	// that rejoin has happened, so every counter (not just the aggregate)
	// is a pure function of seed+spec. (after-upload crashes race the
	// original upload against the rejoin re-broadcast — covered, with the
	// weaker bit-identity-only guarantee, in TestChaosCrashAfterUpload.)
	const spec = "seed=9;corrupt.upload=0.3:max=1;crash@4=before-upload:2"

	baseline := buildSessionFull(t, vehicles, rounds, 0, nil, 1).run(t)

	var first *Report
	for _, workers := range []int{1, 2, 8} {
		s := buildSessionFull(t, vehicles, rounds, 0, nil, workers)
		inj := chaos.New(mustChaosSpec(t, spec), chaos.Options{Sleeper: &obs.ManualSleeper{}})
		report := chaosRun(t, s, inj, map[int]bool{4: true})

		if report.Rounds != rounds {
			t.Fatalf("workers=%d: rounds = %d", workers, report.Rounds)
		}
		if !sameBits(report.FinalParams, baseline.FinalParams) {
			t.Errorf("workers=%d: recovered run diverged from fault-free params", workers)
		}
		if report.CorruptFrames == 0 {
			t.Errorf("workers=%d: schedule injected no corrupt frames", workers)
		}
		if report.Retransmits != report.CorruptFrames {
			t.Errorf("workers=%d: retransmits %d != corrupt frames %d",
				workers, report.Retransmits, report.CorruptFrames)
		}
		if report.Rejoins != 1 {
			t.Errorf("workers=%d: rejoins = %d, want 1", workers, report.Rejoins)
		}
		if report.Stragglers != 0 || report.DegradedRounds != 0 {
			t.Errorf("workers=%d: stragglers=%d degraded=%d, want full recovery",
				workers, report.Stragglers, report.DegradedRounds)
		}
		if len(report.SuspectedMalicious) != 0 {
			t.Errorf("workers=%d: recovery flagged honest vehicles: %v",
				workers, report.SuspectedMalicious)
		}
		if first == nil {
			first = report
			continue
		}
		if report.CorruptFrames != first.CorruptFrames ||
			report.Retransmits != first.Retransmits ||
			report.Rejoins != first.Rejoins ||
			report.Stragglers != first.Stragglers ||
			report.DegradedRounds != first.DegradedRounds {
			t.Errorf("workers=%d: recovery counters diverged: %+v vs %+v",
				workers, report, first)
		}
	}
}

// TestChaosCrashAfterUpload: a vehicle that crashes right after its
// round-1 upload rejoins and completes the session; the aggregate stays
// bit-identical to the fault-free run even though the rejoin
// re-broadcast may race the already-delivered upload (the duplicate
// resend carries identical values).
func TestChaosCrashAfterUpload(t *testing.T) {
	const vehicles, rounds = 20, 3
	baseline := buildSessionFull(t, vehicles, rounds, 0, nil, 1).run(t)

	s := buildSessionFull(t, vehicles, rounds, 0, nil, 1)
	inj := chaos.New(mustChaosSpec(t, "seed=5;crash@7=after-upload:1"), chaos.Options{})
	report := chaosRun(t, s, inj, map[int]bool{7: true})

	if report.Rounds != rounds {
		t.Errorf("rounds = %d", report.Rounds)
	}
	if !sameBits(report.FinalParams, baseline.FinalParams) {
		t.Error("after-upload crash recovery diverged from fault-free params")
	}
	if report.Rejoins != 1 {
		t.Errorf("rejoins = %d, want 1", report.Rejoins)
	}
	if report.Stragglers != 0 {
		t.Errorf("stragglers = %d", report.Stragglers)
	}
}

func mustChaosSpec(t testing.TB, s string) *chaos.Spec {
	t.Helper()
	spec, err := chaos.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestChaosDegradedRound: when every upload is dropped, the fusion
// centre must not hang or fail — each round degrades (below the RS
// recover threshold K nothing can be verified), the model holds still,
// and the session completes. Counters mirror the report.
func TestChaosDegradedRound(t *testing.T) {
	const vehicles, rounds = 10, 2
	reg := obs.NewRegistry()
	o := obs.New(reg, nil, nil)
	s := buildSessionFull(t, vehicles, rounds, 0, o, 0)
	s.server.cfg.RoundTimeout = 500 * time.Millisecond
	initial := append([]float64(nil), s.server.Shared().Params()...)

	inj := chaos.New(mustChaosSpec(t, "seed=2;drop.upload=1"), chaos.Options{})
	report := chaosRun(t, s, inj, nil)

	if report.Rounds != rounds {
		t.Errorf("rounds = %d, want %d", report.Rounds, rounds)
	}
	if report.DegradedRounds != rounds {
		t.Errorf("degraded rounds = %d, want %d", report.DegradedRounds, rounds)
	}
	if report.Stragglers != vehicles*rounds {
		t.Errorf("stragglers = %d, want %d", report.Stragglers, vehicles*rounds)
	}
	if !sameBits(report.FinalParams, initial) {
		t.Error("degraded session moved the model")
	}
	if got := reg.Counter("node.degraded_rounds").Value(); got != int64(report.DegradedRounds) {
		t.Errorf("node.degraded_rounds counter = %d, report %d", got, report.DegradedRounds)
	}
	if got := reg.Counter("node.stragglers").Value(); got != int64(report.Stragglers) {
		t.Errorf("node.stragglers counter = %d, report %d", got, report.Stragglers)
	}
}

// staleConn defers the round-1 upload until the round-2 broadcast
// arrives, turning the vehicle into a straggler whose late upload lands
// mid-round-2 — the stale-upload path.
type staleConn struct {
	transport.Conn
	pending  *protocol.Message
	deferred bool
}

func (c *staleConn) Send(m *protocol.Message) error {
	if !c.deferred && m.Upload != nil && m.Upload.Round == 1 {
		c.deferred = true
		c.pending = m
		return nil
	}
	return c.Conn.Send(m)
}

func (c *staleConn) Recv() (*protocol.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Broadcast != nil && m.Broadcast.Round == 2 && c.pending != nil {
		late := c.pending
		c.pending = nil
		if err := c.Conn.Send(late); err != nil {
			return nil, err
		}
	}
	return m, err
}

// TestStaleUploadCountedOnce pins the straggler-rejoin accounting: a
// vehicle that misses round 1's deadline and delivers that upload during
// round 2 is counted exactly once in Report.Stragglers, the stale upload
// is discarded, and its round-2 upload still counts.
func TestStaleUploadCountedOnce(t *testing.T) {
	s := buildSession(t, 20, 2, 0)
	// Long enough for 19 honest uploads under a loaded -race run, short
	// enough that the deferred vehicle misses round 1.
	s.server.cfg.RoundTimeout = time.Second

	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		conn := s.vconns[i]
		if i == 3 {
			conn = &staleConn{Conn: conn}
		}
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			if err := RunVehicle(conn, s.clients[i]); err != nil {
				t.Errorf("vehicle %d: %v", i, err)
			}
		}(i, conn)
	}
	report, err := s.server.Run(s.conns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if report.Rounds != 2 {
		t.Errorf("rounds = %d", report.Rounds)
	}
	if report.Stragglers != 1 {
		t.Errorf("stragglers = %d, want exactly 1 (late upload must not re-count)", report.Stragglers)
	}
	if report.DegradedRounds != 0 {
		t.Errorf("degraded rounds = %d", report.DegradedRounds)
	}
}

// TestVehicleFinishedBeforeSetup: a rejoin that lands after the session
// ended is answered with Finished instead of Setup — the vehicle must
// terminate cleanly, not report a protocol violation (otherwise a
// crashed vehicle whose backoff outlived the session would always exit
// nonzero).
func TestVehicleFinishedBeforeSetup(t *testing.T) {
	a, b := transport.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if m, err := b.Recv(); err != nil || m.Hello == nil {
			t.Errorf("expected hello: %+v, %v", m, err)
			return
		}
		if err := b.Send(&protocol.Message{Finished: &protocol.Finished{Rounds: 3}}); err != nil {
			t.Errorf("send finished: %v", err)
		}
		b.Close()
	}()
	err := RunVehicle(a, ClientConfig{VehicleID: 1, Data: []nn.Sample{{X: []float64{0}, Y: 0}}, Seed: 1})
	wg.Wait()
	if err != nil {
		t.Fatalf("finished-before-setup not a clean exit: %v", err)
	}
}

// TestRunVehicleRetryGivesUp: a dead fusion centre exhausts the bounded
// backoff schedule — delays grow exponentially, jittered, capped — and
// the vehicle reports the last error instead of hanging.
func TestRunVehicleRetryGivesUp(t *testing.T) {
	sleeper := &obs.ManualSleeper{}
	cfg := ClientConfig{VehicleID: 1, Data: []nn.Sample{{X: []float64{0}, Y: 0}}, Seed: 3}
	err := RunVehicleRetry(cfg, RetryConfig{
		Dial:        func() (transport.Conn, error) { return nil, fmt.Errorf("refused") },
		MaxAttempts: 4,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    40 * time.Millisecond,
		Sleeper:     sleeper,
	})
	if err == nil {
		t.Fatal("gave up silently")
	}
	slept := sleeper.Slept()
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want MaxAttempts-1 = 3: %v", len(slept), slept)
	}
	for i, d := range slept {
		lo := 10 * time.Millisecond << i
		if lo > 40*time.Millisecond {
			lo = 40 * time.Millisecond
		}
		if d < lo || d > lo+lo/2 {
			t.Errorf("backoff %d = %v, want in [%v, %v]", i, d, lo, lo+lo/2)
		}
	}
	// The schedule is deterministic: a second vehicle with the same seed
	// sleeps identically.
	sleeper2 := &obs.ManualSleeper{}
	_ = RunVehicleRetry(cfg, RetryConfig{
		Dial:        func() (transport.Conn, error) { return nil, fmt.Errorf("refused") },
		MaxAttempts: 4,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    40 * time.Millisecond,
		Sleeper:     sleeper2,
	})
	slept2 := sleeper2.Slept()
	for i := range slept {
		if slept[i] != slept2[i] {
			t.Errorf("jitter not deterministic: %v vs %v", slept, slept2)
		}
	}

	if RunVehicleRetry(cfg, RetryConfig{}) == nil {
		t.Error("missing dialer accepted")
	}
	if !IsTransient(transientf("x")) || IsTransient(fmt.Errorf("x")) {
		t.Error("IsTransient misclassifies")
	}
}

// TestRunVehicleRetryRedialsLinkClosedBeforeSetup: the fusion side drops
// the first two links it accepts before the handshake, as an overloaded
// or failing access point would. Those vehicles redial, the session runs
// every round with no straggler, and it ends on the model of the session
// whose links all held, bit for bit.
func TestRunVehicleRetryRedialsLinkClosedBeforeSetup(t *testing.T) {
	const vehicles, rounds, dropped = 8, 2, 2
	s := buildSession(t, vehicles, rounds, 0)
	fab := transport.NewPipeFabric()
	var wg sync.WaitGroup
	for _, cc := range s.clients {
		cc := cc
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunVehicleRetry(cc, RetryConfig{Dial: fab.Dial, Sleeper: &obs.ManualSleeper{}}); err != nil {
				t.Errorf("vehicle %d: %v", cc.VehicleID, err)
			}
		}()
	}
	for i := 0; i < dropped; i++ {
		c, err := fab.Accept()
		if err != nil {
			t.Fatal(err)
		}
		_ = c.Close()
	}
	conns := make([]transport.Conn, vehicles)
	for i := range conns {
		c, err := fab.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	report, err := s.server.Run(conns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	_ = fab.Close()
	if report.Rounds != rounds || report.Stragglers != 0 {
		t.Fatalf("rounds = %d, stragglers = %d; want %d, 0", report.Rounds, report.Stragglers, rounds)
	}
	if direct := buildSession(t, vehicles, rounds, 0).run(t); !sameBits(report.FinalParams, direct.FinalParams) {
		t.Error("FinalParams differ from the session whose links all held")
	}
}
