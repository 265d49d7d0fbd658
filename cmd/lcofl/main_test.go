package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fl"
	"repro/internal/obs"
)

// TestDistUnderChaos runs the networked commands' runner as `lcofl dist`
// does, in process on the pipe fabric, under CI chaos-smoke's spec and
// shape (12 vehicles, 3 rounds, seed 7): every vehicle is judged in
// every round, every corrupt frame the injector made is one the engine
// caught, and every vehicle entered through the Fleet.
func TestDistUnderChaos(t *testing.T) {
	clock := obs.NewRealClock()
	var trace bytes.Buffer
	tr := obs.NewTracer(&trace, clock)
	ob := obs.New(obs.NewRegistry(), tr, clock)
	spec, err := chaos.Parse("seed=7;corrupt.upload=0.2:max=2;delay=0.2:2ms;crash@7=before-upload:1")
	if err != nil {
		t.Fatal(err)
	}
	results, err := fleetRun{
		cmd: "dist", sessions: 1, vehicles: 12, rounds: 3, seed: 7, timeout: 10 * time.Second,
		local: true, inj: chaos.New(spec, chaos.Options{Obs: ob}), retries: 5,
	}.run(ob, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tally fl.Tally
	for _, rec := range results["s0"].Report.Records {
		tally.Add(rec.Verdicts)
	}
	total := 0
	for _, n := range tally {
		total += n
	}
	if total != 36 {
		t.Errorf("verdicts %v sum to %d, want 3 rounds x 12 vehicles = 36", tally, total)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var ev struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		counts[ev.Ev]++
	}
	if counts["chaos.corrupt"] == 0 || counts["node.corrupt_frame"] != counts["chaos.corrupt"] {
		t.Errorf("node.corrupt_frame %d, chaos.corrupt %d: want equal and non-zero", counts["node.corrupt_frame"], counts["chaos.corrupt"])
	}
	if counts["fleet.admit"] < 12 {
		t.Errorf("fleet.admit %d, want every vehicle (12) admitted through the Fleet", counts["fleet.admit"])
	}
}

// TestServeRefusesCheckpointOfManySessions: -checkpoint writes one model,
// so serve refuses it beside -sessions > 1, naming both flags, before it
// listens.
func TestServeRefusesCheckpointOfManySessions(t *testing.T) {
	err := cmdServe([]string{"-addr", "127.0.0.1:0", "-sessions", "2", "-checkpoint", filepath.Join(t.TempDir(), "x")})
	if err == nil || !strings.Contains(err.Error(), "-checkpoint") || !strings.Contains(err.Error(), "-sessions") {
		t.Fatalf("serve -sessions 2 -checkpoint x returned %v, want a refusal naming both flags", err)
	}
}
