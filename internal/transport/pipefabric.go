package transport

import (
	"fmt"
	"sync"
)

// PipeFabric is an in-memory network: Dial creates a Pipe pair and
// queues the server end for Accept, giving single-process fleets the
// same listener-shaped topology as TCP without any sockets. Soak tests
// drive hundreds of vehicle goroutines through one fabric.
type PipeFabric struct {
	mu     sync.Mutex // guards closed
	closed bool       // guarded by mu
	accept chan Conn
	done   chan struct{}
}

// pipeFabricBacklog is how many dialled connections a fabric queues for
// Accept before Dial blocks, matching the pipe buffer depth.
const pipeFabricBacklog = 64

// NewPipeFabric builds an open fabric.
func NewPipeFabric() *PipeFabric {
	return &PipeFabric{
		accept: make(chan Conn, pipeFabricBacklog),
		done:   make(chan struct{}),
	}
}

// Dial opens a client connection; the server end becomes acceptable.
// It blocks only when the accept backlog is full.
func (f *PipeFabric) Dial() (Conn, error) {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		// Checked ahead of the select below, which would otherwise pick
		// randomly between a free backlog slot and the closed signal.
		return nil, fmt.Errorf("transport: dial on closed pipe fabric")
	}
	client, server := Pipe()
	select {
	case f.accept <- server:
		return client, nil
	case <-f.done:
		_ = client.Close()
		_ = server.Close()
		return nil, fmt.Errorf("transport: dial on closed pipe fabric")
	}
}

// Accept implements Listener.
func (f *PipeFabric) Accept() (Conn, error) {
	select {
	case c := <-f.accept:
		return c, nil
	case <-f.done:
		// Drain connections dialed before the close won the race.
		select {
		case c := <-f.accept:
			return c, nil
		default:
			return nil, fmt.Errorf("transport: accept on closed pipe fabric")
		}
	}
}

// Addr implements Listener; the fabric has no network address.
func (f *PipeFabric) Addr() string { return "" }

// Close implements Listener: pending and future Accepts and Dials fail.
func (f *PipeFabric) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed {
		f.closed = true
		close(f.done)
	}
	return nil
}
