package debugz

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// get fetches a path from the server and returns status + body.
func get(t *testing.T, srv *Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, body
}

func TestEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("test.hits", obs.CountOf("test.hit")).Add(3)
	clock := &obs.ManualClock{}
	clock.Set(5 * time.Second)
	sampler := obs.NewRuntimeSampler(reg)
	sampler.EnableProfiles(clock)

	srv, err := Start(Config{Addr: "127.0.0.1:0", Registry: reg, Sampler: sampler, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	// /healthz is live immediately and reports session-clock uptime.
	clock.Advance(2 * time.Second)
	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", code, body)
	}
	var health struct {
		Status   string `json:"status"`
		UptimeNs int64  `json:"uptime_ns"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz json: %v in %s", err, body)
	}
	if health.Status != "ok" || health.UptimeNs != int64(2*time.Second) {
		t.Fatalf("unexpected healthz %+v", health)
	}

	// /metricz serves the live registry snapshot, twin declarations
	// included.
	code, body = get(t, srv, "/metricz")
	if code != http.StatusOK || !strings.Contains(string(body), `"test.hits"`) ||
		!strings.Contains(string(body), `"event": "test.hit"`) {
		t.Fatalf("/metricz status %d body %s", code, body)
	}

	// /roundz 404s until a provider is installed, then serves it.
	if code, _ := get(t, srv, "/roundz"); code != http.StatusNotFound {
		t.Fatalf("/roundz before SetRoundz: status %d, want 404", code)
	}
	srv.SetRoundz(func() any { return map[string]int{"round": 2} })
	code, body = get(t, srv, "/roundz")
	if code != http.StatusOK || !strings.Contains(string(body), `"round": 2`) {
		t.Fatalf("/roundz status %d body %s", code, body)
	}

	// /sessionz 404s until a fleet provider is installed, then serves the
	// multi-session admission snapshot.
	if code, _ := get(t, srv, "/sessionz"); code != http.StatusNotFound {
		t.Fatalf("/sessionz before SetSessionz: status %d, want 404", code)
	}
	srv.SetSessionz(func() any { return map[string]int{"admitted": 7} })
	code, body = get(t, srv, "/sessionz")
	if code != http.StatusOK || !strings.Contains(string(body), `"admitted": 7`) {
		t.Fatalf("/sessionz status %d body %s", code, body)
	}

	// /profilez 404s before the first capture, then serves the snapshot.
	if code, _ := get(t, srv, "/profilez"); code != http.StatusNotFound {
		t.Fatalf("/profilez before capture: status %d, want 404", code)
	}
	sampler.Sample()
	code, body = get(t, srv, "/profilez")
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("/profilez status %d, %d bytes", code, len(body))
	}

	// pprof index responds (the handlers are mounted on our mux).
	if code, _ := get(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
}

func TestNilServerIsNoOp(t *testing.T) {
	var srv *Server
	if srv.Addr() != "" {
		t.Fatal("nil Addr should be empty")
	}
	srv.SetRoundz(func() any { return nil })
	srv.SetSessionz(func() any { return nil })
	if err := srv.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	srv, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// /metricz with no registry would have served "{}" — after close the
	// port must refuse connections.
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
}
