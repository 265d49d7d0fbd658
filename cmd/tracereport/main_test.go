package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
{"ev":"relay.link","t_ns":510}
{"ev":"relay.link","t_ns":520}
{"ev":"relay.dial_error","t_ns":530,"error":"closed"}
{"ev":"relay.corrupt_forward","t_ns":540,"upstream":"up-0"}
`

func TestSummarize(t *testing.T) {
	sum, err := summarize(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 44 || sum.Runs != 1 || sum.FLRounds != 2 || sum.NodeRounds != 2 {
		t.Fatalf("headline counts wrong: %+v", sum)
	}
	if sum.RecvErrors != 1 || sum.Stragglers != 1 {
		t.Fatalf("node counts wrong: %+v", sum)
	}
	// Two pipelined rounds, one budget-closed; overlap ratio is the
	// summed overlap over the summed node.round duration.
	if sum.PipelineRounds != 2 || sum.EarlyCloses != 1 {
		t.Fatalf("pipeline counts wrong: %+v", sum)
	}
	if want := 3000.0 / 8000.0; sum.PipelineOverlapRatio != want {
		t.Fatalf("overlap ratio = %g, want %g", sum.PipelineOverlapRatio, want)
	}
	wantChaos := chaosSummary{Drops: 1, Corrupts: 2, Delays: 1, Crashes: 1}
	if sum.Chaos != wantChaos {
		t.Fatalf("chaos summary = %+v, want %+v", sum.Chaos, wantChaos)
	}
	wantRec := recoverySummary{
		CorruptFrames: 2, Retransmits: 1, Rejoins: 1,
		Reconnects: 1, DegradedRounds: 1, ClientCorruptFrames: 1,
	}
	if sum.Recovery != wantRec {
		t.Fatalf("recovery summary = %+v, want %+v", sum.Recovery, wantRec)
	}
	wantFleet := fleetSummary{
		Admitted: 3, Rejected: 1, Queued: 1,
		SessionsStarted: 1, SessionsDone: 1, HandshakeFails: 1,
	}
	if sum.Fleet != wantFleet {
		t.Fatalf("fleet summary = %+v, want %+v", sum.Fleet, wantFleet)
	}
	wantRelay := relaySummary{Links: 2, DialErrors: 1, CorruptForwarded: 1}
	if sum.Relay != wantRelay {
		t.Fatalf("relay summary = %+v, want %+v", sum.Relay, wantRelay)
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
	d := sum.Decode
	if d.SlotFailures != 1 || d.BatchGroups != 1 || d.BatchWords != 8 || d.BatchRecovered != 6 || d.BatchFallbacks != 2 {
		t.Fatalf("decode summary wrong: %+v", d)
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

func TestCrossCheck(t *testing.T) {
	sum, err := summarize(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	good := `{"counters":{"fl.rounds":2,"node.rounds":2,"node.recv_errors":1,"node.stragglers":1,
		"node.early_closes":1,
		"core.decode_failures":1,
		"rs.batch.words":8,"rs.batch.recovered":6,"rs.batch.fallbacks":2,
		"node.corrupt_frames":2,"node.retransmits":1,"node.rejoins":1,"node.reconnects":1,
		"node.degraded_rounds":1,"node.client_corrupt_frames":1,
		"chaos.drops":1,"chaos.corrupts":2,"chaos.delays":1,"chaos.crashes":1,
		"fleet.admitted":3,"fleet.rejected":1,"fleet.queued":1,
		"fleet.sessions_started":1,"fleet.sessions_done":1,"fleet.handshake_fails":1,
		"relay.links":2,"relay.dial_errors":1,"relay.corrupt_forwarded":1},
		"histograms":{"core.aggregate_ns":{"count":3,"sum":800},"fl.train_ns":{"count":3,"sum":2100}}}`
	if err := crossCheck(sum, writeTemp(t, "good.json", good)); err != nil {
		t.Fatalf("consistent snapshot rejected: %v", err)
	}
	// Histogram sums are pinned to the trace-span duration sums: the
	// sample trace carries three core.aggregate spans of 400+250+150 ns
	// and per-vehicle training times of 500+700+900 ns, so a histogram
	// whose sum drifts from either total must fail the gate. A snapshot
	// without the histogram is still accepted (older metrics files).
	badHist := strings.Replace(good, `"core.aggregate_ns":{"count":3,"sum":800}`,
		`"core.aggregate_ns":{"count":3,"sum":801}`, 1)
	err = crossCheck(sum, writeTemp(t, "bad-hist.json", badHist))
	if err == nil || !strings.Contains(err.Error(), "core.aggregate_ns") {
		t.Fatalf("drifting histogram sum accepted: %v", err)
	}
	badHist = strings.Replace(good, `"fl.train_ns":{"count":3,"sum":2100}`,
		`"fl.train_ns":{"count":3,"sum":2000}`, 1)
	err = crossCheck(sum, writeTemp(t, "bad-train-hist.json", badHist))
	if err == nil || !strings.Contains(err.Error(), "fl.train_ns") {
		t.Fatalf("drifting train histogram sum accepted: %v", err)
	}
	bad := strings.Replace(good, `"rs.batch.fallbacks":2`, `"rs.batch.fallbacks":5`, 1)
	err = crossCheck(sum, writeTemp(t, "bad.json", bad))
	if err == nil || !strings.Contains(err.Error(), "rs.batch.fallbacks") {
		t.Fatalf("inconsistent snapshot accepted: %v", err)
	}
	// The recovery/chaos ledger is cross-checked too: a chaos counter that
	// drifts from the trace-derived count must fail the gate.
	bad = strings.Replace(good, `"chaos.corrupts":2`, `"chaos.corrupts":3`, 1)
	err = crossCheck(sum, writeTemp(t, "bad-chaos.json", bad))
	if err == nil || !strings.Contains(err.Error(), "chaos.corrupts") {
		t.Fatalf("drifting chaos counter accepted: %v", err)
	}
	bad = strings.Replace(good, `"node.rejoins":1`, `"node.rejoins":0`, 1)
	err = crossCheck(sum, writeTemp(t, "bad-rejoin.json", bad))
	if err == nil || !strings.Contains(err.Error(), "node.rejoins") {
		t.Fatalf("drifting rejoin counter accepted: %v", err)
	}
	// The early-close ledger is pinned: the counter must match the count
	// of budget-closed node.pipeline events.
	bad = strings.Replace(good, `"node.early_closes":1`, `"node.early_closes":2`, 1)
	err = crossCheck(sum, writeTemp(t, "bad-early.json", bad))
	if err == nil || !strings.Contains(err.Error(), "node.early_closes") {
		t.Fatalf("drifting early-close counter accepted: %v", err)
	}
	// The fleet admission ledger and the relay ledger are pinned the
	// same way.
	bad = strings.Replace(good, `"fleet.admitted":3`, `"fleet.admitted":4`, 1)
	err = crossCheck(sum, writeTemp(t, "bad-fleet.json", bad))
	if err == nil || !strings.Contains(err.Error(), "fleet.admitted") {
		t.Fatalf("drifting fleet admission counter accepted: %v", err)
	}
	bad = strings.Replace(good, `"relay.links":2`, `"relay.links":3`, 1)
	err = crossCheck(sum, writeTemp(t, "bad-relay.json", bad))
	if err == nil || !strings.Contains(err.Error(), "relay.links") {
		t.Fatalf("drifting relay link counter accepted: %v", err)
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
	if sum.FLRounds != 2 || sum.Decode.BatchWords != 8 {
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
		"2 fl rounds", "1 batch groups (8 words, 6 recovered, 2 fallbacks)", "vehicle-0", "stage latencies",
		"chaos: 1 drops, 2 corrupts, 1 delays, 1 crashes injected",
		"recovery: 2 corrupt frames (1 client-side), 1 retransmits, 1 rejoins, 1 reconnects, 1 degraded rounds",
		"pipeline: 2 pipelined rounds, 1 early closes, overlap ratio 0.375",
		"fleet: 3 admitted, 1 queued, 1 rejected, 1 handshake fails, 1/1 sessions done",
		"relay: 2 links, 1 dial errors, 1 corrupt frames re-signalled",
		"admission by session",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}
