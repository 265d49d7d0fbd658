package node

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

func TestRelayValidation(t *testing.T) {
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := NewRelayWith(RelayConfig{Dial: func() (transport.Conn, error) { return nil, nil }}); err == nil {
		t.Error("nil listener accepted")
	}
	if _, err := NewRelayWith(RelayConfig{Listener: l}); err == nil {
		t.Error("nil dialer accepted")
	}
}

func TestDistributedSessionThroughRelay(t *testing.T) {
	// Full session with every vehicle reaching the fusion centre only via
	// an RSU relay (Fig. 1 topology), including one malicious vehicle —
	// the relay must be protocol-transparent end to end.
	s := buildSession(t, 12, 3, 0)

	fcListener, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fcListener.Close()
	relayListener, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	relay, err := NewRelayWith(RelayConfig{Listener: relayListener, Dial: func() (transport.Conn, error) {
		return transport.DialTCP(fcListener.Addr())
	}})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := relay.Serve(); err != nil {
			t.Logf("relay serve: %v", err)
		}
	}()
	defer relay.Close()

	var wg sync.WaitGroup
	for i := range s.clients {
		conn, err := transport.DialTCP(relayListener.Addr())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			if err := RunVehicle(conn, s.clients[i]); err != nil {
				t.Errorf("vehicle %d: %v", i, err)
			}
		}(i, conn)
	}
	serverConns := make([]transport.Conn, len(s.clients))
	for i := range serverConns {
		done := make(chan struct{})
		var c transport.Conn
		var acceptErr error
		go func() {
			c, acceptErr = fcListener.Accept()
			close(done)
		}()
		select {
		case <-done:
			if acceptErr != nil {
				t.Fatal(acceptErr)
			}
			serverConns[i] = c
		case <-time.After(5 * time.Second):
			t.Fatal("timed out accepting relayed vehicles")
		}
	}
	report, err := s.server.Run(serverConns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if report.Rounds != 3 {
		t.Errorf("rounds = %d", report.Rounds)
	}
	if report.Stragglers != 0 {
		t.Errorf("stragglers through relay = %d", report.Stragglers)
	}
	if len(report.SuspectedMalicious) != 0 {
		t.Errorf("honest relayed session flagged %v", report.SuspectedMalicious)
	}
	// The relay forwards frames, never payloads of its own: the same
	// session over direct connections ends on the same model, bit for bit.
	if direct := buildSession(t, 12, 3, 0).run(t); !sameBits(report.FinalParams, direct.FinalParams) {
		t.Error("relayed FinalParams differ from the direct session's")
	}
}

// TestRelayUpstreamDialFailureMidSession: an upstream dial failure no
// longer kills the relay — the affected vehicles' connections close,
// those vehicles retry directly against the fusion centre, and the
// session completes with the relay still serving its remaining shard.
func TestRelayUpstreamDialFailureMidSession(t *testing.T) {
	const vehicles, rounds = 4, 2
	cfgs, clients := fleetScenario(t, []string{"d"}, vehicles, rounds)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	clk := &obs.ManualClock{}
	o := obs.New(reg, obs.NewTracer(&buf, clk), clk)

	fabUp := transport.NewPipeFabric(0)
	fabDown := transport.NewPipeFabric(0)
	var dials atomic.Int32
	relay, err := NewRelayWith(RelayConfig{
		Listener: fabDown,
		Dial: func() (transport.Conn, error) {
			if dials.Add(1) > 2 {
				return nil, fmt.Errorf("upstream refused")
			}
			return fabUp.Dial()
		},
		Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- relay.Serve() }()

	var wg sync.WaitGroup
	for i := 0; i < vehicles; i++ {
		cc := clients["d"][i]
		var attempts atomic.Int32
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := RunVehicleRetry(cc, RetryConfig{
				Dial: func() (transport.Conn, error) {
					if attempts.Add(1) == 1 {
						return fabDown.Dial() // first try goes through the relay
					}
					return fabUp.Dial() // recovery dials the fusion centre directly
				},
				Sleeper: &obs.ManualSleeper{},
			})
			if err != nil {
				t.Errorf("vehicle %d: %v", cc.VehicleID, err)
			}
		}()
	}
	conns := make([]transport.Conn, vehicles)
	for i := range conns {
		c, err := fabUp.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	srv, err := NewServer(cfgs["d"])
	if err != nil {
		t.Fatal(err)
	}
	// Later arrivals (there should be none here, but a slow vehicle may
	// re-dial) are rejoins.
	rejoinsDone := make(chan struct{})
	go func() {
		defer close(rejoinsDone)
		for {
			c, err := fabUp.Accept()
			if err != nil {
				return
			}
			srv.Rejoin(c)
		}
	}()
	report, err := srv.Run(conns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if report.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", report.Rounds, rounds)
	}
	if got := reg.Counter("relay.dial_errors").Value(); got != 2 {
		t.Fatalf("relay.dial_errors = %d, want 2", got)
	}
	select {
	case err := <-serveErr:
		t.Fatalf("relay serve exited mid-session: %v", err)
	default:
	}
	if err := relay.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("relay serve after close: %v", err)
	}
	fabUp.Close()
	<-rejoinsDone
}

// crashAtRoundConn makes a relay upstream leg die the moment the given
// round's broadcast arrives, simulating a relay crash at a deterministic
// point in the session. The embedded interface deliberately drops the
// optional faces — a crashed relay flushes nothing.
type crashAtRoundConn struct {
	transport.Conn
	round int
}

func (c *crashAtRoundConn) Recv() (*protocol.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Broadcast != nil && m.Broadcast.Round == c.round {
		_ = c.Conn.Close()
		return nil, fmt.Errorf("relay crashed")
	}
	return m, err
}

// TestRelayCrashVehiclesRecoverDirect: the relay crashes when round 2
// begins — no vehicle can make progress through it — and every vehicle
// behind it reconnects directly to the fusion centre through
// RunVehicleRetry. The session still completes all its rounds.
func TestRelayCrashVehiclesRecoverDirect(t *testing.T) {
	const vehicles, rounds = 4, 3
	cfgs, clients := fleetScenario(t, []string{"c"}, vehicles, rounds)
	cfg := cfgs["c"]
	// Generous: on a loaded -race run a short timeout can expire before
	// the crashed shard finishes rejoining, degrading the round and
	// completing the session with zero rejoins to count.
	cfg.RoundTimeout = 60 * time.Second
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}

	fabUp := transport.NewPipeFabric(0)
	fabDown := transport.NewPipeFabric(0)
	relay, err := NewRelayWith(RelayConfig{Listener: fabDown, Dial: func() (transport.Conn, error) {
		c, err := fabUp.Dial()
		if err != nil {
			return nil, err
		}
		return &crashAtRoundConn{Conn: c, round: 2}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = relay.Serve() }()

	var wg sync.WaitGroup
	for i := 0; i < vehicles; i++ {
		cc := clients["c"][i]
		var attempts atomic.Int32
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := RunVehicleRetry(cc, RetryConfig{
				Dial: func() (transport.Conn, error) {
					if attempts.Add(1) == 1 {
						return fabDown.Dial()
					}
					return fabUp.Dial()
				},
				MaxAttempts: 10,
				Sleeper:     &obs.ManualSleeper{},
			})
			if err != nil {
				t.Errorf("vehicle %d: %v", cc.VehicleID, err)
			}
		}()
	}
	conns := make([]transport.Conn, vehicles)
	for i := range conns {
		c, err := fabUp.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	rejoinsDone := make(chan struct{})
	go func() {
		defer close(rejoinsDone)
		for {
			c, err := fabUp.Accept()
			if err != nil {
				return
			}
			srv.Rejoin(c)
		}
	}()
	report, err := srv.Run(conns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if report.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", report.Rounds, rounds)
	}
	if report.Rejoins < 1 {
		t.Fatalf("rejoins = %d, want >= 1 after the relay crash", report.Rejoins)
	}
	if report.DegradedRounds != 0 {
		t.Fatalf("degraded rounds = %d, want 0 (recovery, not degradation)", report.DegradedRounds)
	}
	if err := relay.Close(); err != nil {
		t.Fatal(err)
	}
	fabUp.Close()
	<-rejoinsDone
}

// bufferedLeg stands in for a buffered connection on which more input is
// always about to arrive: Send only queues the frame, Flush delivers what
// is queued, and Pending is always true — which is when the relay defers
// its own flush. A frame nobody flushes never reaches the peer.
type bufferedLeg struct {
	transport.Conn
	mu     sync.Mutex          // guards queued
	queued []*protocol.Message // guarded by mu
}

func (c *bufferedLeg) Send(m *protocol.Message) error {
	c.mu.Lock()
	c.queued = append(c.queued, m)
	c.mu.Unlock()
	return nil
}

func (c *bufferedLeg) Flush() error {
	c.mu.Lock()
	queued := c.queued
	c.queued = nil
	c.mu.Unlock()
	for _, m := range queued {
		if err := c.Conn.Send(m); err != nil {
			return err
		}
	}
	return nil
}

func (c *bufferedLeg) Pending() bool { return true }

func (c *bufferedLeg) queuedFrames() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queued)
}

// bufferedListener wraps every accepted connection in a bufferedLeg and
// reports it on legs.
type bufferedListener struct {
	transport.Listener
	legs chan *bufferedLeg
}

func (l bufferedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	leg := &bufferedLeg{Conn: c}
	l.legs <- leg
	return leg, nil
}

// TestRelayCloseFlushesForwardedFrames: regression for the shutdown race
// where Relay.Close's best-effort flush could drop frames the relay had
// already accepted. A frame forwarded into a leg's send buffer but not
// yet flushed must reach its destination before the connections are torn
// down, on the upstream leg and on the downstream one.
func TestRelayCloseFlushesForwardedFrames(t *testing.T) {
	fabUp := transport.NewPipeFabric(0)
	fabDown := transport.NewPipeFabric(0)
	legs := make(chan *bufferedLeg, 2)
	relay, err := NewRelayWith(RelayConfig{Listener: bufferedListener{fabDown, legs}, Dial: func() (transport.Conn, error) {
		c, err := fabUp.Dial()
		if err != nil {
			return nil, err
		}
		leg := &bufferedLeg{Conn: c}
		legs <- leg
		return leg, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = relay.Serve() }()

	vehicle, err := fabDown.Dial()
	if err != nil {
		t.Fatal(err)
	}
	fusion, err := fabUp.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer vehicle.Close()
	defer fusion.Close()
	if err := vehicle.Send(&protocol.Message{Upload: &protocol.Upload{Round: 1, Values: []float64{42}}}); err != nil {
		t.Fatal(err)
	}
	if err := fusion.Send(&protocol.Message{Broadcast: &protocol.Broadcast{Round: 1, Params: []float64{7}}}); err != nil {
		t.Fatal(err)
	}
	// Wait until each frame sits in the relay's send buffer on the far
	// leg (forwarded, not flushed, not dropped), then close the relay.
	for _, leg := range []*bufferedLeg{<-legs, <-legs} {
		for leg.queuedFrames() == 0 {
			runtime.Gosched()
		}
	}
	if err := relay.Close(); err != nil {
		t.Fatal(err)
	}
	if m, err := fusion.Recv(); err != nil || m.Upload == nil || m.Upload.Values[0] != 42 {
		t.Fatalf("forwarded upload lost at close: %+v, %v", m, err)
	}
	if m, err := vehicle.Recv(); err != nil || m.Broadcast == nil || m.Broadcast.Params[0] != 7 {
		t.Fatalf("forwarded broadcast lost at close: %+v, %v", m, err)
	}
}
