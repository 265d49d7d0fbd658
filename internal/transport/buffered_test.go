package transport

import (
	"testing"
	"time"

	"repro/internal/protocol"
)

// bufferedPair dials a loopback TCP connection with the given options on
// both ends, returning (client, server).
func bufferedPair(t *testing.T, opts Options) (Conn, Conn) {
	t.Helper()
	l, err := ListenTCPOptions("127.0.0.1:0", opts)
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
	client, err := DialTCPOptions(l.Addr(), 0, opts)
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

// TestBufferedCoalesceAndPending exercises the opt-in buffered fabric:
// two Sends coalesce into the write buffer until Flush pushes them out
// as one write, after which the receiver sees the second frame as
// locally Pending once it has read the first.
func TestBufferedCoalesceAndPending(t *testing.T) {
	client, server := bufferedPair(t, Options{WriteBuffer: 64 << 10})
	SetWireVersion(client, protocol.Version)

	m1 := &protocol.Message{Broadcast: &protocol.Broadcast{Round: 1, Params: []float64{1, 2, 3}}}
	m2 := &protocol.Message{Upload: &protocol.Upload{Round: 1, VehicleID: 7, Values: []float64{4, 5}}}
	if err := client.Send(m1); err != nil {
		t.Fatal(err)
	}
	if err := client.Send(m2); err != nil {
		t.Fatal(err)
	}
	if err := Flush(client); err != nil {
		t.Fatal(err)
	}
	got1, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got1.Broadcast == nil || got1.Broadcast.Round != 1 {
		t.Fatalf("first message: %+v", got1)
	}
	// Both frames left in one flush (single loopback write), so after the
	// first Recv the second frame sits in the read buffer.
	if !Pending(server) {
		t.Error("second coalesced frame not pending after first Recv")
	}
	got2, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got2.Upload == nil || got2.Upload.VehicleID != 7 {
		t.Fatalf("second message: %+v", got2)
	}
}

// TestUnbufferedOptionalFaces pins the degenerate behaviour of the
// optional faces on an unbuffered connection and on the pipe fabric:
// Flush succeeds as a no-op, Pending is false (a pipe with queued input
// reports true), and SetWireVersion is accepted everywhere.
func TestUnbufferedOptionalFaces(t *testing.T) {
	client, server := bufferedPair(t, Options{})
	SetWireVersion(client, protocol.Version)
	if err := Flush(client); err != nil {
		t.Fatalf("unbuffered flush: %v", err)
	}
	if Pending(server) {
		t.Error("unbuffered conn reports pending input")
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
	if Pending(b) {
		t.Error("idle pipe reports pending input")
	}
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	if !Pending(b) {
		t.Error("pipe with a queued message reports no pending input")
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
}
