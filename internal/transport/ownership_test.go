package transport

import (
	"reflect"
	"testing"

	"repro/internal/protocol"
)

// The tests below pin transport.Conn's byte-ownership rule on both
// fabrics. CI runs them under the race detector, which also catches a
// fabric that touches a caller's message after handing it over.

// fabrics returns a connected (sender, receiver) pair of each fabric.
func fabrics(t *testing.T) map[string][2]Conn {
	t.Helper()
	a, b := Pipe()
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	client, server := tcpPair(t)
	return map[string][2]Conn{"pipe": {a, b}, "tcp": {client, server}}
}

func upload(round int, values []float64) *protocol.Message {
	return &protocol.Message{Upload: &protocol.Upload{Round: round, VehicleID: 3, Values: values}}
}

// TestSendKeepsNothing: once Send returns, the caller may overwrite the
// message and its slices; the peer still receives what was sent. One
// message and one vector serve every send, as a vehicle's do.
func TestSendKeepsNothing(t *testing.T) {
	for name, pair := range fabrics(t) {
		tx, rx := pair[0], pair[1]
		vals := make([]float64, 5)
		up := protocol.Upload{VehicleID: 3, Values: vals}
		msg := &protocol.Message{Upload: &up}
		ref := [][]float64{{1, 2}, {3, 4}}
		setup := &protocol.Message{Setup: &protocol.Setup{InputSize: 2, RefX: ref, ActivationCoeffs: []float64{0, 0.5}, WireVersion: protocol.Version}}
		if err := tx.Send(setup); err != nil {
			t.Fatal(err)
		}
		ref[1][0], setup.Setup.ActivationCoeffs[1], setup.Setup.InputSize = -9, -9, 7
		for r := 1; r <= 3; r++ {
			up.Round = r
			for i := range vals {
				vals[i] = float64(10*r + i)
			}
			if err := tx.Send(msg); err != nil {
				t.Fatal(err)
			}
			for i := range vals {
				vals[i] = -1 // the sender is free to scribble at once
			}
		}
		m, err := rx.Recv()
		if err != nil || m.Setup == nil {
			t.Fatalf("%s: setup read as %+v, %v", name, m, err)
		}
		if want := [][]float64{{1, 2}, {3, 4}}; !reflect.DeepEqual(m.Setup.RefX, want) || m.Setup.ActivationCoeffs[1] != 0.5 || m.Setup.InputSize != 2 {
			t.Fatalf("%s: setup changed after Send: %+v", name, m.Setup)
		}
		for r := 1; r <= 3; r++ {
			m, err := rx.Recv()
			if err != nil || m.Upload == nil || m.Upload.Round != r {
				t.Fatalf("%s: upload %d read as %+v, %v", name, r, m, err)
			}
			for i, v := range m.Upload.Values {
				if v != float64(10*r+i) {
					t.Fatalf("%s: round %d value %d arrived as %v, sent %v", name, r, i, v, float64(10*r+i))
				}
			}
		}
	}
}

// TestRecvValidUntilNextRecv: a received Upload or Broadcast, payload
// included, does not change while its receiver holds it — however much
// the sender sends meanwhile — and a Hello or Setup never changes, across
// any number of later receives.
func TestRecvValidUntilNextRecv(t *testing.T) {
	for name, pair := range fabrics(t) {
		tx, rx := pair[0], pair[1]
		send := func(m *protocol.Message) {
			t.Helper()
			if err := tx.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		send(hello(4))
		send(&protocol.Message{Setup: &protocol.Setup{InputSize: 1, RefX: [][]float64{{5}}, WireVersion: protocol.Version}})
		h, err := rx.Recv()
		if err != nil {
			t.Fatal(err)
		}
		su, err := rx.Recv()
		if err != nil {
			t.Fatal(err)
		}
		wantH, wantSu := *h.Hello, *su.Setup
		wantRef := su.Setup.RefX[0][0]

		const burst = 20 // below the pipe's queue depth, so no Send blocks
		for r := 1; r <= 3; r++ {
			send(&protocol.Message{Broadcast: &protocol.Broadcast{Round: r, Params: []float64{float64(r), 0.5}}})
			send(upload(r, []float64{float64(r), 1, 2}))
			bc, err := rx.Recv()
			if err != nil || bc.Broadcast == nil {
				t.Fatalf("%s: broadcast %d read as %+v, %v", name, r, bc, err)
			}
			// The sender goes on before the receiver's next Recv; whatever
			// it sends must not show through the message held.
			for i := 0; i < burst; i++ {
				send(&protocol.Message{Broadcast: &protocol.Broadcast{Round: 100 + i, Params: []float64{-1, -1, -1}}})
			}
			if b := bc.Broadcast; b.Round != r || !reflect.DeepEqual(b.Params, []float64{float64(r), 0.5}) {
				t.Fatalf("%s: held broadcast %d changed before the next Recv: %+v", name, r, b)
			}
			up, err := rx.Recv()
			if err != nil || up.Upload == nil {
				t.Fatalf("%s: upload %d read as %+v, %v", name, r, up, err)
			}
			for i := 0; i < burst; i++ {
				send(upload(100+i, []float64{-1}))
			}
			if u := up.Upload; u.Round != r || !reflect.DeepEqual(u.Values, []float64{float64(r), 1, 2}) {
				t.Fatalf("%s: held upload %d changed before the next Recv: %+v", name, r, u)
			}
			for i := 0; i < 2*burst; i++ {
				if _, err := rx.Recv(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if *h.Hello != wantH || su.Setup.InputSize != wantSu.InputSize || su.Setup.RefX[0][0] != wantRef {
			t.Fatalf("%s: a kept Hello or Setup changed under later receives: %+v, %+v", name, h.Hello, su.Setup)
		}
	}
}
