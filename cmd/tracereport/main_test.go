package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

const sampleTrace = `{"ev":"experiments.run_start","t_ns":0,"variant":"l-cofl"}
{"ev":"fl.round","t_ns":100,"dur_ns":1000,"round":1}
{"ev":"fl.round","t_ns":2000,"dur_ns":3000,"round":2}
{"ev":"fl.vehicle","t_ns":150,"round":1,"vehicle":0,"train_ns":500}
{"ev":"fl.vehicle","t_ns":160,"round":2,"vehicle":0,"train_ns":700}
{"ev":"fl.vehicle","t_ns":170,"round":1,"vehicle":3,"train_ns":900}
{"ev":"core.slot_fail","t_ns":200,"slot":4}
{"ev":"rs.batch","t_ns":230,"words":8,"points":20,"recovered":6,"fallbacks":2,"combined_ok":true}
{"ev":"transport.send","t_ns":240,"peer":"vehicle-0","kind":"round","bytes":100}
{"ev":"transport.send","t_ns":250,"peer":"vehicle-0","kind":"round","bytes":60}
{"ev":"transport.recv","t_ns":260,"peer":"vehicle-0","kind":"upload","bytes":300}
{"ev":"node.round","t_ns":300,"dur_ns":5000,"round":1}
{"ev":"node.pipeline","t_ns":305,"round":1,"wait_budget":2,"arrived":10,"closed_by":"budget","overlap_ns":2000}
{"ev":"node.early_close","t_ns":305,"round":1,"arrived":10}
{"ev":"node.round","t_ns":600,"dur_ns":3000,"round":2}
{"ev":"node.pipeline","t_ns":605,"round":2,"wait_budget":0,"arrived":12,"closed_by":"all","overlap_ns":1000}
{"ev":"core.aggregate","t_ns":320,"dur_ns":400,"round":1}
{"ev":"core.aggregate","t_ns":610,"dur_ns":250,"round":2}
{"ev":"core.aggregate","t_ns":650,"dur_ns":150,"round":2}
{"ev":"node.recv_error","t_ns":310,"round":1,"vehicle":2,"error":"closed"}
{"ev":"node.straggler","t_ns":320,"round":1,"vehicle":5}
{"ev":"chaos.drop","t_ns":330,"peer":4,"kind":"upload","rule":0}
{"ev":"chaos.corrupt","t_ns":340,"peer":4,"kind":"upload","rule":1}
{"ev":"chaos.corrupt","t_ns":350,"peer":6,"kind":"upload","rule":1}
{"ev":"chaos.delay","t_ns":360,"peer":2,"kind":"hello","rule":2,"delay_ns":2000000}
{"ev":"chaos.crash","t_ns":370,"peer":7,"kind":"upload","point":"before-upload","round":2}
{"ev":"node.corrupt_frame","t_ns":380,"round":1,"vehicle":4}
{"ev":"node.corrupt_frame","t_ns":390,"round":1,"vehicle":6}
{"ev":"node.retransmit","t_ns":400,"round":1,"vehicle":4,"attempt":1}
{"ev":"node.rejoin","t_ns":410,"round":2,"vehicle":7}
{"ev":"node.reconnect","t_ns":420,"vehicle":7,"failures":1,"delay_ns":100000000,"error":"closed"}
{"ev":"node.degraded","t_ns":430,"round":2,"present":3,"need":8}
{"ev":"node.client_corrupt_frame","t_ns":440,"vehicle":4}
{"ev":"fleet.admit","t_ns":450,"session":"s0","vehicle":0,"version":5,"rejoin":false}
{"ev":"fleet.admit","t_ns":460,"session":"s0","vehicle":1,"version":5,"rejoin":false}
{"ev":"fleet.admit","t_ns":465,"session":"s0","vehicle":1,"version":5,"rejoin":true}
{"ev":"fleet.queue","t_ns":470,"session":"s1","vehicle":0}
{"ev":"fleet.reject","t_ns":480,"session":"s2","vehicle":3,"reason":"admission queue full","retry":true}
{"ev":"fleet.handshake_fail","t_ns":485,"error":"node: hello timeout"}
{"ev":"fleet.session_start","t_ns":490,"session":"s0","vehicles":2}
{"ev":"fleet.session_done","t_ns":500,"session":"s0","rounds":2}
`

func TestSummarize(t *testing.T) {
	sum, err := summarize(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 41 || len(sum.Counts) != 29 {
		t.Fatalf("headline counts wrong: %d events of %d kinds", sum.Events, len(sum.Counts))
	}
	for ev, want := range map[string]int64{
		"experiments.run_start": 1, "fl.round": 2, "node.round": 2, "fl.vehicle": 3,
		"core.aggregate": 3, "chaos.corrupt": 2, "node.corrupt_frame": 2, "fleet.admit": 3,
		"node.pipeline": 2, "transport.send": 2, "node.client_corrupt_frame": 1,
	} {
		if got := sum.Counts[ev]; got != want {
			t.Fatalf("count of %s = %d, want %d", ev, got, want)
		}
	}
	// Every numeric field but t_ns is summed per event; strings and
	// booleans are not.
	for _, c := range []struct {
		ev, field string
		want      int64
	}{
		{"rs.batch", "words", 8}, {"rs.batch", "fallbacks", 2}, {"transport.send", "bytes", 160},
		{"core.aggregate", "dur_ns", 800}, {"fl.vehicle", "train_ns", 2100},
		{"node.pipeline", "overlap_ns", 3000}, {"fl.round", "t_ns", 0}, {"rs.batch", "combined_ok", 0},
	} {
		if got := sum.sums[c.ev][c.field]; got != c.want {
			t.Fatalf("Σ %s over %s = %d, want %d", c.field, c.ev, got, c.want)
		}
	}
	// Two pipelined rounds, one budget-closed; overlap ratio is the
	// summed overlap over the summed node.round duration.
	if want := (pipelineStats{Rounds: 2, EarlyCloses: 1, OverlapRatio: 3000.0 / 8000.0}); sum.Pipeline != want {
		t.Fatalf("pipeline = %+v, want %+v", sum.Pipeline, want)
	}
	// Per-session ledger: s0's three admits include one rejoin and its
	// session_done stamps the completed rounds; s1 only ever queued, s2
	// only ever bounced.
	if s0 := sum.Sessions["s0"]; s0 == nil || *s0 != (sessionStats{Admitted: 3, Rejoins: 1, Rounds: 2}) {
		t.Fatalf("session s0 stats wrong: %+v", sum.Sessions["s0"])
	}
	if s1 := sum.Sessions["s1"]; s1 == nil || *s1 != (sessionStats{Queued: 1}) {
		t.Fatalf("session s1 stats wrong: %+v", sum.Sessions["s1"])
	}
	if s2 := sum.Sessions["s2"]; s2 == nil || *s2 != (sessionStats{Rejected: 1}) {
		t.Fatalf("session s2 stats wrong: %+v", sum.Sessions["s2"])
	}
	fr := sum.Stages["fl.round"]
	if fr == nil || fr.Count != 2 || fr.P50 != 1000 || fr.P95 != 3000 || fr.Max != 3000 {
		t.Fatalf("fl.round stage stats wrong: %+v", fr)
	}
	// Round-keyed pairing: round 2's aggregate work is split across two
	// spans but must yield ONE 400ns sample, same as round 1 — not three
	// arrival-order samples.
	ca := sum.Stages["core.aggregate"]
	if ca == nil || ca.Count != 2 || ca.P50 != 400 || ca.Max != 400 {
		t.Fatalf("core.aggregate stage stats wrong: %+v", ca)
	}
	p := sum.Peers["vehicle-0"]
	if p == nil || p.SentMsgs != 2 || p.SentBytes != 160 || p.RecvMsgs != 1 || p.RecvBytes != 300 {
		t.Fatalf("peer stats wrong: %+v", p)
	}
	v0 := sum.Vehicles["0"]
	if v0 == nil || v0.Rounds != 2 || v0.TrainNs != 1200 {
		t.Fatalf("vehicle 0 stats wrong: %+v", v0)
	}
	if v3 := sum.Vehicles["3"]; v3 == nil || v3.Rounds != 1 || v3.TrainNs != 900 {
		t.Fatalf("vehicle 3 stats wrong: %+v", sum.Vehicles["3"])
	}
}

func TestSummarizeRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ name, trace, want string }{
		{"bad json", "{\"ev\":\"a\",\"t_ns\":0}\nnot json\n", "line 2"},
		{"missing ev", "{\"t_ns\":0}\n", "no \"ev\""},
		{"missing t_ns", "{\"ev\":\"a\"}\n", "t_ns"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := summarize(strings.NewReader(tc.trace))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := percentile(s, 0.50); got != 50 {
		t.Fatalf("p50 = %d, want 50", got)
	}
	if got := percentile(s, 0.95); got != 100 {
		t.Fatalf("p95 = %d, want 100", got)
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Fatalf("single-sample p99 = %d, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %d, want 0", got)
	}
}

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sampleSnapshot writes a metrics snapshot whose declarations and values
// agree with sampleTrace, except that set overrides a metric's value.
func sampleSnapshot(t *testing.T, set map[string]int64) string {
	t.Helper()
	reg := obs.NewRegistry()
	counters := []struct {
		name string
		twin obs.Twin
		v    int64
	}{
		{"fl.rounds", obs.CountOf("fl.round"), 2},
		{"node.stragglers", obs.CountOf("node.straggler"), 1},
		{"node.early_closes", obs.CountOf("node.early_close"), 1},
		{"rs.batch.fallbacks", obs.SumOf("rs.batch", "fallbacks"), 2},
		{"chaos.corrupts", obs.CountOf("chaos.corrupt"), 2},
		{"fleet.admitted", obs.CountOf("fleet.admit"), 3},
		{"transport.send_bytes", obs.SumOf("transport.send", "bytes"), 160},
		{"transport.send_errors", obs.NoTwin("no event"), 7},
	}
	for _, c := range counters {
		v, ok := set[c.name]
		if !ok {
			v = c.v
		}
		reg.Counter(c.name, c.twin).Add(v)
	}
	hists := []struct {
		name string
		twin obs.Twin
		obs  []int64
	}{
		{"core.aggregate_ns", obs.SpanOf("core.aggregate"), []int64{400, 250, 150}},
		{"fl.train_ns", obs.SumOf("fl.vehicle", "train_ns"), []int64{500, 700, 900}},
	}
	for _, h := range hists {
		hist := reg.Histogram(h.name, obs.LatencyBuckets(), h.twin)
		for _, v := range h.obs {
			hist.Observe(v)
		}
		if v, ok := set[h.name]; ok {
			hist.Observe(v)
		}
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return writeTemp(t, "metrics.json", buf.String())
}

func TestCrossCheck(t *testing.T) {
	sum, err := summarize(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if err := crossCheck(sum, sampleSnapshot(t, nil)); err != nil {
		t.Fatalf("consistent snapshot rejected: %v", err)
	}
	// Each kind of twin — an event count, a field sum, a span's histogram
	// sum, a field-summed histogram — must
	// fail the check when its metric drifts, and the error names it.
	for name, v := range map[string]int64{
		"fl.rounds": 3, "chaos.corrupts": 1, "fleet.admitted": 4, "node.early_closes": 2,
		"rs.batch.fallbacks": 5, "transport.send_bytes": 161, "core.aggregate_ns": 1, "fl.train_ns": 1,
	} {
		err := crossCheck(sum, sampleSnapshot(t, map[string]int64{name: v}))
		if err == nil || !strings.Contains(err.Error(), name+" = ") {
			t.Fatalf("drifting %s accepted or not named: %v", name, err)
		}
	}
	// Every disagreeing metric is named, not only the first.
	err = crossCheck(sum, sampleSnapshot(t, map[string]int64{"fl.rounds": 0, "node.stragglers": 0}))
	if err == nil || !strings.Contains(err.Error(), "fl.rounds = ") || !strings.Contains(err.Error(), "node.stragglers = ") {
		t.Fatalf("two drifting counters not both named: %v", err)
	}
	// A twin-less metric is not checked, whatever its value.
	if err := crossCheck(sum, sampleSnapshot(t, map[string]int64{"transport.send_errors": 99})); err != nil {
		t.Fatalf("twin-less counter checked: %v", err)
	}
	// A snapshot that declares nothing cannot vouch for the trace.
	bare := writeTemp(t, "bare.json", `{"counters":{"fl.rounds":2}}`)
	if err := crossCheck(sum, bare); err == nil || !strings.Contains(err.Error(), "declares no trace twins") {
		t.Fatalf("snapshot without declarations accepted: %v", err)
	}
}

func TestRunJSON(t *testing.T) {
	trace := writeTemp(t, "trace.jsonl", sampleTrace)
	var buf bytes.Buffer
	if err := run([]string{"-json", trace}, &buf); err != nil {
		t.Fatal(err)
	}
	var sum summary
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	if sum.Counts["fl.round"] != 2 || sum.Counts["rs.batch"] != 1 || sum.Pipeline.EarlyCloses != 1 {
		t.Fatalf("JSON summary wrong: %+v", sum)
	}
}

func TestRunText(t *testing.T) {
	trace := writeTemp(t, "trace.jsonl", sampleTrace)
	var buf bytes.Buffer
	if err := run([]string{trace}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"trace: 41 events of 29 kinds", "vehicle-0", "stage latencies",
		"pipeline: 2 pipelined rounds, 1 early closes, overlap ratio 0.375",
		"events:", "chaos.corrupt              2", "fleet.handshake_fail       1",
		"admission by session",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}
