package node

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// TestRelayManyConcurrentVehicles pushes many concurrent vehicle
// connections through one relay at message level: every client dials the
// relay, which opens its own upstream connection to a backend that echoes
// frames. Run under -race (scripts/check.sh does) this exercises the
// relay's connection-list locking, the per-connection pipe goroutines,
// and teardown while traffic is in flight.
func TestRelayManyConcurrentVehicles(t *testing.T) {
	const vehicles = 40
	const msgs = 25

	backend, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	var backendWG sync.WaitGroup
	go func() {
		for {
			c, err := backend.Accept()
			if err != nil {
				return
			}
			backendWG.Add(1)
			go func(c transport.Conn) {
				defer backendWG.Done()
				defer c.Close()
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					if err := c.Send(m); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	relayListener, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	relay, err := NewRelayWith(RelayConfig{Listener: relayListener, Dial: func() (transport.Conn, error) {
		return transport.DialTCP(backend.Addr())
	}})
	if err != nil {
		t.Fatal(err)
	}
	relayDone := make(chan struct{})
	go func() {
		defer close(relayDone)
		if err := relay.Serve(); err != nil {
			t.Errorf("relay serve: %v", err)
		}
	}()

	var clientWG sync.WaitGroup
	var echoed atomic.Int64
	for i := 0; i < vehicles; i++ {
		clientWG.Add(1)
		go func(id int) {
			defer clientWG.Done()
			c, err := transport.DialTCP(relayListener.Addr())
			if err != nil {
				t.Errorf("vehicle %d dial: %v", id, err)
				return
			}
			defer c.Close()
			for j := 0; j < msgs; j++ {
				m := &protocol.Message{Hello: &protocol.Hello{Version: protocol.Version, VehicleID: id}}
				if err := c.Send(m); err != nil {
					t.Errorf("vehicle %d send: %v", id, err)
					return
				}
				got, err := c.Recv()
				if err != nil {
					t.Errorf("vehicle %d recv: %v", id, err)
					return
				}
				if got.Hello == nil || got.Hello.VehicleID != id {
					t.Errorf("vehicle %d got foreign frame %+v", id, got)
					return
				}
				echoed.Add(1)
			}
		}(i)
	}
	clientWG.Wait()
	if got, want := echoed.Load(), int64(vehicles*msgs); got != want {
		t.Errorf("relayed %d echoes, want %d", got, want)
	}
	if err := relay.Close(); err != nil {
		t.Errorf("relay close: %v", err)
	}
	<-relayDone
	_ = backend.Close()
	backendWG.Wait()
}

// TestRelayCloseWhileTrafficInFlight tears the relay down while vehicles
// are still sending: no deadlock, no race, and Close remains idempotent.
func TestRelayCloseWhileTrafficInFlight(t *testing.T) {
	backend, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	go func() {
		for {
			c, err := backend.Accept()
			if err != nil {
				return
			}
			go func(c transport.Conn) {
				defer c.Close()
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	relayListener, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	relay, err := NewRelayWith(RelayConfig{Listener: relayListener, Dial: func() (transport.Conn, error) {
		return transport.DialTCP(backend.Addr())
	}})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = relay.Serve() }()

	const vehicles = 16
	var wg sync.WaitGroup
	started := make(chan struct{}, vehicles)
	for i := 0; i < vehicles; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := transport.DialTCP(relayListener.Addr())
			if err != nil {
				return // relay may already be closing
			}
			defer c.Close()
			started <- struct{}{}
			for j := 0; j < 1000; j++ {
				m := &protocol.Message{Hello: &protocol.Hello{Version: protocol.Version, VehicleID: id}}
				if err := c.Send(m); err != nil {
					return // teardown mid-flight is the point
				}
			}
		}(i)
	}
	// Wait until at least half the vehicles are streaming, then yank.
	for i := 0; i < vehicles/2; i++ {
		<-started
	}
	if err := relay.Close(); err != nil {
		t.Errorf("relay close: %v", err)
	}
	if err := relay.Close(); err != nil {
		t.Errorf("second relay close: %v", err)
	}
	wg.Wait()
}
