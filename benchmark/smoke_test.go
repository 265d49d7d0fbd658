package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// declared mirrors the parts of BENCHMARK.json the harness must match.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runBench drives one pass over one workload in-process, as the driver's
// call does after flag parsing, and returns the parsed last line.
func runBench(t *testing.T, w workload, o options) result {
	t.Helper()
	args := fmt.Sprintf("%s -trace %d", w.name, o.trace)
	var out bytes.Buffer
	if code := runWith([]workload{w}, o, &out); code != 0 {
		t.Fatalf("benchmark %v exited %d:\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Fatalf("benchmark %v: correct=%v attempted=%d failed=%d", args, r.Correct, r.Attempted, r.Failed)
	}
	return r
}

func checkMetrics(t *testing.T, what string, got map[string]metricValue, want []declaredMetric, table []metricDef) {
	t.Helper()
	if len(got) != len(want) || len(table) != len(want) {
		t.Errorf("%s: printed %d metrics, table has %d, BENCHMARK.json declares %d", what, len(got), len(table), len(want))
	}
	for i, d := range want {
		mv, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not printed", what, d.Name)
			continue
		}
		if mv.Unit != d.Unit {
			t.Errorf("%s: %s printed in %q, declared in %q", what, d.Name, mv.Unit, d.Unit)
		}
		if i < len(table) {
			def := table[i]
			better := "lower"
			if def.higher {
				better = "higher"
			}
			if def.name != d.Name || better != d.Better || (d.Bound != nil && *d.Bound != def.bound) {
				t.Errorf("%s: table entry %+v disagrees with declared %+v", what, def, d)
			}
		}
	}
}

// TestSmoke runs every workload through the full path — timed
// repetitions, correctness gate, traced pass, replays — at 12 rounds a
// session, and checks that what the command prints is what BENCHMARK.json
// declares.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(d.Workloads), len(workloads))
	}
	for _, m := range append(append([]declaredMetric(nil), d.EndToEnd...), d.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is not a valid name", m.Name)
		}
	}
	outDir := t.TempDir()
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d: harness %q, declared %q", i, w.name, d.Workloads[i].Name)
		}
		w.rounds, w.slice = 12, 4
		// A window this short is covered at once, so the timed pass runs
		// its minimum of repetitions.
		o := options{seed: 1, seconds: 0.01, outDir: outDir}
		timed := runBench(t, w, o)
		checkMetrics(t, w.name+" end_to_end", timed.Metrics, d.EndToEnd, endToEnd)
		if want := minReps * (warmupRounds + 12); timed.Attempted != want {
			t.Errorf("%s: attempted %d rounds, want %d", w.name, timed.Attempted, want)
		}
		o.trace = 1
		traced := runBench(t, w, o)
		checkMetrics(t, w.name+" per_layer", traced.Metrics, d.PerLayer, perLayer)
		if fi, err := os.Stat(filepath.Join(outDir, "trace-"+w.name+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no trace written: %v", w.name, err)
		}
		switch w.name {
		case "straggle-v32-budget":
			if got := traced.Metrics["node.admitted_frac"].Value; got != 0.75 {
				t.Errorf("straggle admitted_frac = %g, want 0.75 (exactly the fast vehicles)", got)
			}
		case "decode-v64-adv":
			if got := traced.Metrics["reedsolomon.fallback_slot_frac"].Value; got <= 0 {
				t.Errorf("decode fallback_slot_frac = %g, want > 0 with liars among the first K arrivals", got)
			}
		}
	}
}

// TestGateTrips tampers with a real session's report and checks that the
// correctness gate notices.
func TestGateTrips(t *testing.T) {
	w, _ := findWorkload("decode-v64-adv")
	w.slice = 4
	s, err := runSession(w, 1, sessionOpts{rounds: 12})
	if err != nil {
		t.Fatal(err)
	}
	if g := gate(w, []*sessionResult{s}); !g.ok() || g.failed != 0 || g.attempted != warmupRounds+12 {
		t.Fatalf("untampered session fails the gate: %v", g.failures)
	}
	if len(s.in.planted) != 19 {
		t.Fatalf("planted %d liars, want 19", len(s.in.planted))
	}

	honest := 0
	for s.in.plan.IsMalicious(honest) {
		honest++
	}
	flagged := *s
	rep := *s.report
	rep.SuspectedMalicious = append(append([]int(nil), rep.SuspectedMalicious...), honest)
	flagged.report = &rep
	if g := gate(w, []*sessionResult{&flagged}); g.ok() {
		t.Error("an honest vehicle flagged as malicious passed the gate")
	}

	degraded := *s
	rep = *s.report
	rep.DegradedRounds = 1
	degraded.report = &rep
	if g := gate(w, []*sessionResult{&degraded}); g.ok() || g.failed != 1 {
		t.Errorf("a degraded round passed the gate (failed=%d)", g.failed)
	}

	drifted := *s
	drifted.paramsDigest = "000000000000"
	if g := gate(w, []*sessionResult{s, &drifted}); g.ok() {
		t.Error("repetitions with different final parameters passed the gate")
	}
}
