package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
)

func hello(id int) *protocol.Message {
	return &protocol.Message{Hello: &protocol.Hello{Version: protocol.Version, VehicleID: id}}
}

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.Send(hello(1)); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Hello == nil || got.Hello.VehicleID != 1 {
		t.Errorf("got %+v", got)
	}
	// And the reverse direction.
	if err := b.Send(hello(2)); err != nil {
		t.Fatal(err)
	}
	got, err = a.Recv()
	if err != nil || got.Hello.VehicleID != 2 {
		t.Errorf("reverse: %+v, %v", got, err)
	}
}

func TestPipeCloseUnblocksPeer(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("recv on closed peer returned nil error")
		}
	case <-time.After(time.Second):
		t.Fatal("recv did not unblock after peer close")
	}
	if err := a.Send(hello(0)); err == nil {
		t.Error("send on closed pipe accepted")
	}
}

func TestPipeDrainAfterPeerClose(t *testing.T) {
	a, b := Pipe()
	if err := a.Send(hello(5)); err != nil {
		t.Fatal(err)
	}
	a.Close()
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("queued message lost after close: %v", err)
	}
	if got.Hello.VehicleID != 5 {
		t.Errorf("got %+v", got)
	}
	if _, err := b.Recv(); err == nil {
		t.Error("recv past drained queue returned message")
	}
}

func TestPipeRejectsInvalidMessage(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.Send(&protocol.Message{}); err == nil {
		t.Error("invalid message accepted")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Addr() == "" {
		t.Error("empty listen address")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var serverErr error
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			serverErr = err
			return
		}
		defer conn.Close()
		m, err := conn.Recv()
		if err != nil {
			serverErr = err
			return
		}
		serverErr = conn.Send(&protocol.Message{Upload: &protocol.Upload{
			Round: 1, VehicleID: m.Hello.VehicleID, Values: []float64{9},
		}})
	}()

	conn, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(hello(3)); err != nil {
		t.Fatal(err)
	}
	got, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Upload == nil || got.Upload.VehicleID != 3 || got.Upload.Values[0] != 9 {
		t.Errorf("got %+v", got)
	}
	wg.Wait()
	if serverErr != nil {
		t.Fatal(serverErr)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 8
	seen := make(chan int, n)
	go func() {
		for i := 0; i < n; i++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c Conn) {
				defer c.Close()
				m, err := c.Recv()
				if err != nil {
					return
				}
				seen <- m.Hello.VehicleID
			}(conn)
		}
	}()
	for i := 0; i < n; i++ {
		conn, err := DialTCP(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(hello(i)); err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
	}
	got := map[int]bool{}
	for i := 0; i < n; i++ {
		select {
		case id := <-seen:
			got[id] = true
		case <-time.After(2 * time.Second):
			t.Fatal("timed out waiting for clients")
		}
	}
	if len(got) != n {
		t.Errorf("saw %d distinct clients, want %d", len(got), n)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialTCP("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port accepted")
	}
}

func TestDialTCPTimeoutConnects(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := DialTCPTimeout(l.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// A non-positive timeout falls back to the default rather than
	// meaning "no timeout".
	conn, err = DialTCPTimeout(l.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
}

// TestCorruptFramePipe pins the pipe fabric's Faulter face: the corrupted
// message surfaces as protocol.ErrCorruptFrame and the connection keeps
// working afterwards.
func TestCorruptFramePipe(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	f, ok := a.(Faulter)
	if !ok {
		t.Fatal("pipe conn does not implement Faulter")
	}
	if err := f.SendCorrupt(hello(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(hello(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); !errors.Is(err, protocol.ErrCorruptFrame) {
		t.Fatalf("corrupt pipe frame: err = %v, want ErrCorruptFrame", err)
	}
	got, err := b.Recv()
	if err != nil || got.Hello == nil || got.Hello.VehicleID != 2 {
		t.Fatalf("pipe unusable after corrupt frame: %+v, %v", got, err)
	}
}

// TestCorruptFrameTCP does the same over a real socket: the flipped CRC
// travels the wire and the receiver's checksum catches it.
func TestCorruptFrameTCP(t *testing.T) {
	conn, server := tcpPair(t)
	if err := conn.(Faulter).SendCorrupt(hello(7)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(hello(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); !errors.Is(err, protocol.ErrCorruptFrame) {
		t.Fatalf("corrupt TCP frame: err = %v, want ErrCorruptFrame", err)
	}
	got, err := server.Recv()
	if err != nil || got.Hello == nil || got.Hello.VehicleID != 8 {
		t.Fatalf("TCP stream desynced after corrupt frame: %+v, %v", got, err)
	}
}

// tcpPair dials a loopback TCP connection, returning (client, server).
func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	client, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	select {
	case server := <-accepted:
		t.Cleanup(func() { server.Close() })
		return client, server
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
		return nil, nil
	}
}

// TestUnbufferedOptionalFaces pins the degenerate behaviour of the
// optional faces on a TCP connection and on the pipe fabric:
// Flush succeeds as a no-op and SetWireVersion is accepted everywhere.
func TestUnbufferedOptionalFaces(t *testing.T) {
	client, server := tcpPair(t)
	SetWireVersion(client, protocol.Version)
	if err := Flush(client); err != nil {
		t.Fatalf("unbuffered flush: %v", err)
	}
	m := &protocol.Message{Upload: &protocol.Upload{Round: 2, VehicleID: 1, Values: []float64{9}}}
	if err := client.Send(m); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Upload == nil || got.Upload.Values[0] != 9 {
		t.Fatalf("got %+v", got)
	}

	a, b := Pipe()
	SetWireVersion(a, protocol.Version) // no-op, must not panic
	if err := Flush(a); err != nil {
		t.Fatalf("pipe flush: %v", err)
	}
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
}

// TestPipeFabric: Dial/Accept hand matched ends across the in-memory
// fabric, and Close fails both sides cleanly.
func TestPipeFabric(t *testing.T) {
	f := NewPipeFabric()
	client, err := f.Dial()
	if err != nil {
		t.Fatal(err)
	}
	server, err := f.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send(&protocol.Message{Finished: &protocol.Finished{Rounds: 2}}); err != nil {
		t.Fatal(err)
	}
	if m, err := server.Recv(); err != nil || m.Finished == nil || m.Finished.Rounds != 2 {
		t.Fatalf("fabric recv = %+v, %v", m, err)
	}
	if f.Addr() != "" {
		t.Fatalf("pipe fabric has addr %q", f.Addr())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Dial(); err == nil {
		t.Fatal("dial succeeded on closed fabric")
	}
	if _, err := f.Accept(); err == nil {
		t.Fatal("accept succeeded on closed fabric")
	}
	_ = client.Close()
	_ = server.Close()
}
