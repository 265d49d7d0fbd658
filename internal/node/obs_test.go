package node

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// TestReportRecvErrorsOnConnectionBreak kills one vehicle's connection
// mid-session and checks the break is visible in all three ledgers: the
// Report field, the node.recv_errors counter, and node.recv_error trace
// events (PR goal: receive errors used to vanish into the straggler
// path without a trace).
func TestReportRecvErrorsOnConnectionBreak(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	clk := &obs.ManualClock{}
	o := obs.New(reg, obs.NewTracer(&buf, clk), clk)

	s := buildSessionObs(t, 20, 3, 0, o)
	s.server.cfg.RoundTimeout = 300 * time.Millisecond

	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		if i == 7 {
			// Handshakes, receives the setup and the first broadcast,
			// then drops the connection without uploading.
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
		t.Errorf("rounds = %d, want 3 despite the broken connection", report.Rounds)
	}
	if report.RecvErrors < 1 {
		t.Fatalf("RecvErrors = %d, want >= 1 after a mid-session close", report.RecvErrors)
	}
	if got := reg.Snapshot().Counters["node.recv_errors"]; got != int64(report.RecvErrors) {
		t.Errorf("node.recv_errors counter = %d, Report.RecvErrors = %d", got, report.RecvErrors)
	}

	if err := o.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	var recvErrorEvents int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if rec["ev"] == "node.recv_error" {
			recvErrorEvents++
			if v, _ := rec["vehicle"].(float64); int(v) != 7 {
				t.Errorf("recv_error blamed vehicle %v, want 7", rec["vehicle"])
			}
		}
	}
	if recvErrorEvents != report.RecvErrors {
		t.Errorf("trace has %d node.recv_error events, Report.RecvErrors = %d", recvErrorEvents, report.RecvErrors)
	}
	// The handshake relabels the instrumented conn from its accept-order
	// name to the vehicle ID, so the crasher's traffic must be attributed
	// to vehicle-7 rather than conn-7.
	if !strings.Contains(buf.String(), `"peer":"vehicle-7"`) {
		t.Error("trace never attributed traffic to vehicle-7 after the handshake relabel")
	}
}
