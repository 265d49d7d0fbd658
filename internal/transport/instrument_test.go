package transport

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// obsForTest builds a full Obs (registry + tracer + manual clock) whose
// trace lands in the returned buffer. The buffer is only safe to read
// after every emitting goroutine has finished.
func obsForTest() (*obs.Obs, *obs.Registry, *bytes.Buffer) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	clk := &obs.ManualClock{}
	return obs.New(reg, obs.NewTracer(&buf, clk), clk), reg, &buf
}

func TestInstrumentDisabledReturnsOriginal(t *testing.T) {
	a, _ := Pipe()
	if got := Instrument(a, nil, "x"); got != a {
		t.Fatal("disabled Instrument wrapped the connection")
	}
}

// TestInstrumentCountsTraffic checks the wrapper's three ledgers agree:
// per-connection stats, registry counters, and trace events.
func TestInstrumentCountsTraffic(t *testing.T) {
	o, reg, buf := obsForTest()
	a, b := Pipe()
	ia := Instrument(a, o, "server")
	ib := Instrument(b, o, "vehicle-0")

	const n = 5
	wantBytes := int64(0)
	for i := 0; i < n; i++ {
		m := stressMsg(i)
		wantBytes += int64(protocol.EncodedSizeVersion(m, protocol.Version))
		if err := ia.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := ib.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	// A corrupted frame goes on the wire too: it is counted and traced
	// like a Send, and fails the receiver's checksum.
	corrupt := stressMsg(n)
	if err := ia.(Faulter).SendCorrupt(corrupt); err != nil {
		t.Fatal(err)
	}
	if _, err := ib.Recv(); err == nil {
		t.Fatal("corrupted frame received cleanly")
	}
	wantSent := wantBytes + int64(protocol.EncodedSizeVersion(corrupt, protocol.Version))
	st := ia.(*instrumentedConn).Stats()
	if st.SentMsgs != n+1 || st.SentBytes != wantSent || st.SendErrors != 0 {
		t.Fatalf("sender stats %+v, want %d msgs / %d bytes", st, n+1, wantSent)
	}
	st = ib.(*instrumentedConn).Stats()
	if st.RecvMsgs != n || st.RecvBytes != wantBytes {
		t.Fatalf("receiver stats %+v, want %d msgs / %d bytes", st, n, wantBytes)
	}
	if got := reg.Snapshot().Counters["transport.send_msgs"]; got != n+1 {
		t.Fatalf("transport.send_msgs = %d, want %d", got, n+1)
	}
	if got := reg.Snapshot().Counters["transport.recv_bytes"]; got != wantBytes {
		t.Fatalf("transport.recv_bytes = %d, want %d", got, wantBytes)
	}

	// Sends fail after the local close (the peer-close race is covered by
	// the stress tests); the error counter must move and the message
	// counters must not.
	_ = ia.Close()
	if err := ia.Send(stressMsg(99)); err == nil {
		t.Fatal("send after close succeeded")
	}
	if got := reg.Snapshot().Counters["transport.send_errors"]; got != 1 {
		t.Fatalf("transport.send_errors = %d, want 1", got)
	}
	if got := reg.Snapshot().Counters["transport.send_msgs"]; got != n+1 {
		t.Fatalf("send_msgs moved on a failed send: %d", got)
	}

	if err := o.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	var sends, recvs int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		switch rec["ev"] {
		case "transport.send":
			sends++
			if rec["peer"] != "server" || rec["kind"] != "hello" {
				t.Fatalf("send event mislabelled: %v", rec)
			}
		case "transport.recv":
			recvs++
			if rec["peer"] != "vehicle-0" {
				t.Fatalf("recv event mislabelled: %v", rec)
			}
		}
	}
	if sends != n+1 || recvs != n {
		t.Fatalf("trace has %d sends / %d recvs, want %d / %d", sends, recvs, n+1, n)
	}
}

func TestInstrumentSetPeerRelabels(t *testing.T) {
	o, _, buf := obsForTest()
	a, b := Pipe()
	ia := Instrument(a, o, "conn-0")
	ia.(interface{ SetPeer(string) }).SetPeer("vehicle-7")
	if err := ia.Send(stressMsg(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := o.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"peer":"vehicle-7"`) {
		t.Fatalf("trace kept stale peer label:\n%s", buf.String())
	}
}

// TestInstrumentCloseRacesSend mirrors TestPipeCloseRacesSend with every
// end wrapped: closes race sends and recvs on both instrumented ends
// while a relabeler spins. Run under -race (scripts/check.sh does); the
// test fails by deadlock or by the race detector.
func TestInstrumentCloseRacesSend(t *testing.T) {
	o, _, _ := obsForTest()
	const rounds = 64
	for r := 0; r < rounds; r++ {
		a, b := Pipe()
		ia, ib := Instrument(a, o, "a"), Instrument(b, o, "b")
		var wg sync.WaitGroup
		for _, c := range []Conn{ia, ib} {
			wg.Add(3)
			go func(c Conn) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if err := c.Send(stressMsg(i)); err != nil {
						return
					}
				}
			}(c)
			go func(c Conn) {
				defer wg.Done()
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
				}
			}(c)
			go func(c Conn) {
				defer wg.Done()
				c.(interface{ SetPeer(string) }).SetPeer("relabelled")
				_ = c.Close()
			}(c)
		}
		wg.Wait()
	}
}

// TestInstrumentConcurrentStress is TestPipeConcurrentStress over
// instrumented pairs: traffic on many connections at once, with closes
// in flight, all feeding one shared registry and tracer.
func TestInstrumentConcurrentStress(t *testing.T) {
	o, reg, _ := obsForTest()
	const pairs = 16
	const msgs = 50
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		a, b := Pipe()
		ia, ib := Instrument(a, o, "a"), Instrument(b, o, "b")
		wg.Add(2)
		go func(c Conn) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				if err := c.Send(stressMsg(i)); err != nil {
					return
				}
			}
			_ = c.Close()
		}(ia)
		go func(c Conn) {
			defer wg.Done()
			for {
				if _, err := c.Recv(); err != nil {
					_ = c.Close()
					return
				}
				delivered.Add(1)
			}
		}(ib)
	}
	wg.Wait()
	if delivered.Load() == 0 {
		t.Fatal("no messages survived the stress run")
	}
	if got := reg.Snapshot().Counters["transport.recv_msgs"]; got != delivered.Load() {
		t.Fatalf("registry recv_msgs = %d, delivered = %d", got, delivered.Load())
	}
	if err := o.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestInstrumentSetPeerRacesSend pins the relabel path specifically: a
// sender streams messages while SetPeer flips the label concurrently.
// Run under -race (scripts/check.sh does); beyond race-cleanliness,
// every emitted event must carry one of the two labels — never a torn
// or empty peer.
func TestInstrumentSetPeerRacesSend(t *testing.T) {
	o, _, buf := obsForTest()
	a, b := Pipe()
	ia := Instrument(a, o, "conn-0")
	const n = 200
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := ia.Send(stressMsg(i)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := b.Recv(); err != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			label := "conn-0"
			if i%2 == 1 {
				label = "vehicle-9"
			}
			ia.(interface{ SetPeer(string) }).SetPeer(label)
		}
	}()
	wg.Wait()
	if err := o.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	events := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if rec["ev"] != "transport.send" {
			continue
		}
		events++
		if p := rec["peer"]; p != "conn-0" && p != "vehicle-9" {
			t.Fatalf("torn peer label %v in %v", p, rec)
		}
	}
	if events != n {
		t.Fatalf("trace has %d send events, want %d", events, n)
	}
}

// TestInstrumentPropagatesTraceContext: messages carrying trace context
// get it attached to their transport.send/recv events, and context-free
// messages stay context-free (no empty trace/span keys).
func TestInstrumentPropagatesTraceContext(t *testing.T) {
	o, _, buf := obsForTest()
	a, b := Pipe()
	ia, ib := Instrument(a, o, "server"), Instrument(b, o, "vehicle-1")
	withCtx := &protocol.Message{Broadcast: &protocol.Broadcast{
		Round: 1, Params: []float64{1},
		TraceID: "00000000deadbeef", SpanID: "00000000cafef00d"}}
	without := &protocol.Message{Finished: &protocol.Finished{Rounds: 1}}
	for _, m := range []*protocol.Message{withCtx, without} {
		if err := ia.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := ib.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	var ctxEvents, plainEvents int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		switch rec["kind"] {
		case "broadcast":
			ctxEvents++
			if rec["trace"] != "00000000deadbeef" || rec["span"] != "00000000cafef00d" {
				t.Fatalf("broadcast event lost its context: %v", rec)
			}
		case "finished":
			plainEvents++
			if _, has := rec["trace"]; has {
				t.Fatalf("context-free message grew a trace field: %v", rec)
			}
		}
	}
	if ctxEvents != 2 || plainEvents != 2 {
		t.Fatalf("saw %d ctx / %d plain events, want 2 each", ctxEvents, plainEvents)
	}
}
