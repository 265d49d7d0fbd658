package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/transport"
)

// chaosSession runs one traced in-process session — 12 vehicles, 3
// rounds, behind a node.Fleet on the pipe fabric, as `lcofl dist` runs it
// — under the chaos spec CI's chaos-smoke job uses (corrupted uploads,
// delays, one crash and rejoin). It returns the trace's lines and the
// path of the metrics snapshot taken after the session.
func chaosSession(t *testing.T) ([]string, string) {
	t.Helper()
	reg := obs.NewRegistry()
	clock := obs.NewRealClock()
	var trace bytes.Buffer
	tr := obs.NewTracer(&trace, clock)
	ob := obs.New(reg, tr, clock)
	spec, err := chaos.Parse("seed=7;corrupt.upload=0.2:max=2;delay=0.2:2ms;crash@7=before-upload:1")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(spec, chaos.Options{Obs: ob})
	d, err := experiments.Scenario{
		Vehicles: 12, Rounds: 3, Rows: 2000, Batches: 4, Seed: 7, Obs: ob,
	}.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	d.Server.RoundTimeout = 10 * time.Second
	fleet, err := node.NewFleet(node.FleetConfig{
		Sessions:       map[string]node.ServerConfig{"s0": d.Server},
		DefaultSession: "s0",
		Obs:            ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewPipeFabric()
	var serving, vehicles parallel.Group
	serving.Go(func() error { return fleet.Serve(fab) })
	for _, cc := range d.Clients {
		dial := func() (transport.Conn, error) {
			c, err := fab.Dial()
			if err != nil {
				return nil, err
			}
			return inj.Wrap(cc.VehicleID, c), nil
		}
		vehicles.Go(func() error {
			return node.RunVehicleRetry(cc, node.RetryConfig{Dial: dial, BaseDelay: time.Millisecond, Obs: ob})
		})
	}
	err = vehicles.Wait()
	if serr := serving.Wait(); err == nil {
		err = serr
	}
	if err == nil {
		err = fleet.Results()["s0"].Err
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := reg.WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	return strings.SplitAfter(strings.TrimSuffix(trace.String(), "\n"), "\n"),
		writeTemp(t, "metrics.json", snap.String())
}

// TestDerivedCheckNotVacuous holds the declared ledger to a real session:
// the check passes on the trace as recorded, every counter and histogram
// the session registered is either checked or declared twin-less, and
// deleting any one line of a twinned event makes the check fail, naming
// every metric that line counts toward.
func TestDerivedCheckNotVacuous(t *testing.T) {
	lines, metricsPath := chaosSession(t)
	sum, err := summarize(strings.NewReader(strings.Join(lines, "")))
	if err != nil {
		t.Fatal(err)
	}
	if err := crossCheck(sum, metricsPath); err != nil {
		t.Fatalf("the session as recorded fails its own check: %v", err)
	}
	// The fault schedule fired, as chaos-smoke asserts it does.
	c := sum.Counts
	if c["node.round"] != 3 || c["chaos.corrupt"] == 0 || c["chaos.delay"] == 0 || c["chaos.crash"] != 1 ||
		c["node.corrupt_frame"] != c["chaos.corrupt"] || c["node.retransmit"] != c["node.corrupt_frame"] ||
		c["node.reconnect"] < 1 || c["node.rejoin"] < 1 {
		t.Fatalf("fault schedule not exercised: %v", c)
	}

	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	byEvent := map[string][]string{} // twinned event → its metrics
	var names, twinless []string
	for name := range snap.Counters {
		names = append(names, name)
	}
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tw, ok := snap.Twins[name]
		switch {
		case !ok:
			t.Errorf("%s is neither checked nor declared twin-less", name)
		case tw.Event == "":
			twinless = append(twinless, name)
		default:
			byEvent[tw.Event] = append(byEvent[tw.Event], name)
		}
	}
	// Of the session's metrics, only the five that no event re-derives go
	// unchecked; the transport ledger is checked.
	wantTwinless := []string{"lagrange.encode_words", "rs.batch.combined_fail", "rs.batch.combined_ok",
		"transport.recv_errors", "transport.send_errors"}
	if strings.Join(twinless, " ") != strings.Join(wantTwinless, " ") || len(names) < 30 {
		t.Fatalf("twin-less metrics %v of %d, want %v", twinless, len(names), wantTwinless)
	}

	deleted := 0
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		metrics := byEvent[rec["ev"].(string)]
		if len(metrics) == 0 {
			continue
		}
		// The metrics this line counts toward: every count twin, and every
		// sum twin whose field the line carries as a non-zero value.
		var want []string
		for _, name := range metrics {
			tw := snap.Twins[name]
			if v, _ := rec[tw.Field].(float64); tw.Field == "" || int64(v) != 0 {
				want = append(want, name)
			}
		}
		if len(want) == 0 {
			t.Errorf("line %d (%s) counts toward none of %v", i+1, rec["ev"], metrics)
			continue
		}
		rest := strings.Join(lines[:i], "") + strings.Join(lines[i+1:], "")
		cut, err := summarize(strings.NewReader(rest))
		if err != nil {
			t.Fatal(err)
		}
		err = crossCheck(cut, metricsPath)
		for _, name := range want {
			if err == nil || !strings.Contains(err.Error(), name+" = ") {
				t.Fatalf("deleting line %d (%s) passed or did not name %s: %v", i+1, rec["ev"], name, err)
			}
		}
		deleted++
	}
	if deleted == 0 {
		t.Fatal("no twinned event in the trace")
	}
}
