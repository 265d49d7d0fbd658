// Command tracereport summarises a JSONL event trace written by
// `lcofl -trace` (see DESIGN.md §10): rounds, decode outcomes, stage
// latency percentiles, per-peer transport traffic and per-vehicle
// training time.
//
// Usage:
//
//	tracereport [-json] [-check-metrics metrics.json] [trace.jsonl]
//	tracereport -merge fusion.jsonl [vehicle.jsonl ...]
//
// With no file argument the trace is read from stdin. -json replaces
// the text tables with a machine-readable summary. -check-metrics
// cross-checks the trace-derived counts against the counter snapshot
// written by `lcofl -metrics` — both exact event counts against the
// registry counters and exact stage-span duration sums against the
// histogram sums — and fails when the two ledgers disagree; CI runs
// this so the tracer and the registry can never drift apart silently.
// -merge combines the fusion centre's trace with per-vehicle traces
// from a distributed run into one causally ordered per-round timeline
// on the fusion clock (see merge.go).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"text/tabwriter"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracereport:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tracereport", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the summary as JSON instead of text tables")
	checkMetrics := fs.String("check-metrics", "", "cross-check against this `lcofl -metrics` snapshot and fail on disagreement")
	merge := fs.Bool("merge", false, "merge a fusion trace (first file) with per-vehicle traces into one fleet timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *merge {
		if *asJSON || *checkMetrics != "" {
			return fmt.Errorf("-merge cannot be combined with -json or -check-metrics")
		}
		return runMerge(fs.Args(), w)
	}
	var r io.Reader = os.Stdin
	name := "stdin"
	if fs.NArg() > 1 {
		return fmt.Errorf("at most one trace file, got %d", fs.NArg())
	}
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		r, name = f, fs.Arg(0)
	}
	sum, err := summarize(r)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if *checkMetrics != "" {
		if err := crossCheck(sum, *checkMetrics); err != nil {
			return err
		}
	}
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}
	return writeText(w, sum)
}

// decodeSummary aggregates the verification-channel events. Every field
// mirrors a registry counter (crossCheck pins the pairing).
type decodeSummary struct {
	SlotFailures   int64 `json:"slot_failures"`
	BatchGroups    int64 `json:"batch_groups"`
	BatchWords     int64 `json:"batch_words"`
	BatchRecovered int64 `json:"batch_recovered"`
	BatchFallbacks int64 `json:"batch_fallbacks"`
}

// stageStats holds exact (nearest-rank over every sample) latency
// percentiles for one event kind.
type stageStats struct {
	Count int   `json:"count"`
	P50   int64 `json:"p50_ns"`
	P95   int64 `json:"p95_ns"`
	P99   int64 `json:"p99_ns"`
	Max   int64 `json:"max_ns"`
}

type peerStats struct {
	SentMsgs  int64 `json:"sent_msgs"`
	SentBytes int64 `json:"sent_bytes"`
	RecvMsgs  int64 `json:"recv_msgs"`
	RecvBytes int64 `json:"recv_bytes"`
}

type vehicleStats struct {
	Rounds  int   `json:"rounds"`
	TrainNs int64 `json:"train_ns"`
}

// recoverySummary aggregates the fault-recovery events the node layer
// emits under chaos (DESIGN.md §11). Every field mirrors a registry
// counter (crossCheck pins the pairing).
type recoverySummary struct {
	CorruptFrames       int64 `json:"corrupt_frames"`
	Retransmits         int64 `json:"retransmits"`
	Rejoins             int64 `json:"rejoins"`
	Reconnects          int64 `json:"reconnects"`
	DegradedRounds      int64 `json:"degraded_rounds"`
	ClientCorruptFrames int64 `json:"client_corrupt_frames"`
}

// fleetSummary aggregates the multi-session admission-plane events the
// fleet front door emits (DESIGN.md §16). Every field mirrors a
// registry counter (crossCheck pins the pairing).
type fleetSummary struct {
	Admitted        int64 `json:"admitted"`
	Rejected        int64 `json:"rejected"`
	Queued          int64 `json:"queued"`
	SessionsStarted int64 `json:"sessions_started"`
	SessionsDone    int64 `json:"sessions_done"`
	HandshakeFails  int64 `json:"handshake_fails"`
}

// relaySummary aggregates the edge-relay events; Links counts the
// vehicle connections the relays paired with an upstream leg.
type relaySummary struct {
	Links            int64 `json:"links"`
	DialErrors       int64 `json:"dial_errors"`
	CorruptForwarded int64 `json:"corrupt_forwarded"`
}

// sessionStats is one session's slice of the admission ledger, keyed by
// the session field the fleet stamps on its events.
type sessionStats struct {
	Admitted int64 `json:"admitted"`
	Queued   int64 `json:"queued"`
	Rejected int64 `json:"rejected"`
	// Rejoins counts the admits that re-attached a vehicle to a running
	// session (the rejoin flag on fleet.admit).
	Rejoins int64 `json:"rejoins"`
	// Rounds is the completed-round count from fleet.session_done (0
	// until the session finishes, or when it failed).
	Rounds int64 `json:"rounds"`
}

// chaosSummary counts the faults the internal/chaos injector reported
// having fired — the "what was done to the run" side of the ledger that
// recoverySummary answers.
type chaosSummary struct {
	Drops    int64 `json:"drops"`
	Corrupts int64 `json:"corrupts"`
	Delays   int64 `json:"delays"`
	Crashes  int64 `json:"crashes"`
}

type summary struct {
	Events     int   `json:"events"`
	Runs       int   `json:"runs"`
	FLRounds   int   `json:"fl_rounds"`
	NodeRounds int   `json:"node_rounds"`
	RecvErrors int64 `json:"recv_errors"`
	Stragglers int64 `json:"stragglers"`
	// PipelineRounds counts node.pipeline events (one per round on the
	// pipelined engine); EarlyCloses are the budget-closed subset, and
	// PipelineOverlapRatio is Σ overlap_ns over Σ node.round dur_ns — the
	// fraction of total round time spent ingesting uploads concurrently
	// with the rest of the round.
	PipelineRounds       int             `json:"pipeline_rounds"`
	EarlyCloses          int64           `json:"early_closes"`
	PipelineOverlapRatio float64         `json:"pipeline_overlap_ratio"`
	Decode               decodeSummary   `json:"decode"`
	Recovery             recoverySummary `json:"recovery"`
	Chaos                chaosSummary    `json:"chaos"`
	Fleet                fleetSummary    `json:"fleet"`
	Relay                relaySummary    `json:"relay"`
	// Sessions breaks the fleet admission ledger down per session ID.
	Sessions map[string]*sessionStats `json:"sessions,omitempty"`
	// SpanSums holds the exact total duration per span event — the raw
	// Σ dur_ns, unkeyed by round — paired by crossCheck against the
	// matching histogram's sum field.
	SpanSums map[string]int64         `json:"span_sum_ns,omitempty"`
	Stages   map[string]*stageStats   `json:"stages"`
	Peers    map[string]*peerStats    `json:"peers"`
	Vehicles map[string]*vehicleStats `json:"vehicles"`
}

// num reads a numeric field; JSON numbers decode as float64.
func num(rec map[string]any, key string) (int64, bool) {
	f, ok := rec[key].(float64)
	return int64(f), ok
}

func str(rec map[string]any, key string) string {
	s, _ := rec[key].(string)
	return s
}

func summarize(r io.Reader) (*summary, error) {
	sum := &summary{
		SpanSums: map[string]int64{},
		Stages:   map[string]*stageStats{},
		Peers:    map[string]*peerStats{},
		Vehicles: map[string]*vehicleStats{},
		Sessions: map[string]*sessionStats{},
	}
	durs := map[string][]int64{}
	// Spans that carry a round ID are keyed by it and summed per round, so
	// a stage whose work for one round is split across several spans — or
	// interleaved with the next round's by the pipelined engine — yields
	// one latency sample per ROUND, not one per span in arrival order.
	roundDurs := map[string]map[int64]int64{}
	var overlapNs, nodeRoundNs int64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		ev := str(rec, "ev")
		if ev == "" {
			return nil, fmt.Errorf("line %d: event has no \"ev\" field", lineNo)
		}
		if _, ok := rec["t_ns"].(float64); !ok {
			return nil, fmt.Errorf("line %d: event %q has no numeric \"t_ns\"", lineNo, ev)
		}
		sum.Events++
		if d, ok := num(rec, "dur_ns"); ok {
			sum.SpanSums[ev] += d
			if round, ok := num(rec, "round"); ok {
				m := roundDurs[ev]
				if m == nil {
					m = map[int64]int64{}
					roundDurs[ev] = m
				}
				m[round] += d
			} else {
				durs[ev] = append(durs[ev], d)
			}
		}
		switch ev {
		case "experiments.run_start":
			sum.Runs++
		case "fl.round":
			sum.FLRounds++
		case "node.round":
			sum.NodeRounds++
			if d, ok := num(rec, "dur_ns"); ok {
				nodeRoundNs += d
			}
		case "node.pipeline":
			sum.PipelineRounds++
			o, _ := num(rec, "overlap_ns")
			overlapNs += o
			if str(rec, "closed_by") == "budget" {
				sum.EarlyCloses++
			}
		case "node.recv_error":
			sum.RecvErrors++
		case "node.straggler":
			sum.Stragglers++
		case "node.corrupt_frame":
			sum.Recovery.CorruptFrames++
		case "node.retransmit":
			sum.Recovery.Retransmits++
		case "node.rejoin":
			sum.Recovery.Rejoins++
		case "node.reconnect":
			sum.Recovery.Reconnects++
		case "node.degraded":
			sum.Recovery.DegradedRounds++
		case "node.client_corrupt_frame":
			sum.Recovery.ClientCorruptFrames++
		case "fleet.admit":
			sum.Fleet.Admitted++
			ss := sum.session(str(rec, "session"))
			ss.Admitted++
			if rj, _ := rec["rejoin"].(bool); rj {
				ss.Rejoins++
			}
		case "fleet.reject":
			sum.Fleet.Rejected++
			sum.session(str(rec, "session")).Rejected++
		case "fleet.queue":
			sum.Fleet.Queued++
			sum.session(str(rec, "session")).Queued++
		case "fleet.session_start":
			sum.Fleet.SessionsStarted++
		case "fleet.session_done":
			sum.Fleet.SessionsDone++
			if r, ok := num(rec, "rounds"); ok {
				sum.session(str(rec, "session")).Rounds = r
			}
		case "fleet.handshake_fail":
			sum.Fleet.HandshakeFails++
		case "relay.link":
			sum.Relay.Links++
		case "relay.dial_error":
			sum.Relay.DialErrors++
		case "relay.corrupt_forward":
			sum.Relay.CorruptForwarded++
		case "chaos.drop":
			sum.Chaos.Drops++
		case "chaos.corrupt":
			sum.Chaos.Corrupts++
		case "chaos.delay":
			sum.Chaos.Delays++
		case "chaos.crash":
			sum.Chaos.Crashes++
		case "core.slot_fail":
			sum.Decode.SlotFailures++
		case "rs.batch":
			sum.Decode.BatchGroups++
			w, _ := num(rec, "words")
			rec2, _ := num(rec, "recovered")
			fb, _ := num(rec, "fallbacks")
			sum.Decode.BatchWords += w
			sum.Decode.BatchRecovered += rec2
			sum.Decode.BatchFallbacks += fb
		case "transport.send":
			p := sum.peer(str(rec, "peer"))
			b, _ := num(rec, "bytes")
			p.SentMsgs++
			p.SentBytes += b
		case "transport.recv":
			p := sum.peer(str(rec, "peer"))
			b, _ := num(rec, "bytes")
			p.RecvMsgs++
			p.RecvBytes += b
		case "fl.vehicle":
			id, _ := num(rec, "vehicle")
			v := sum.vehicle(strconv.FormatInt(id, 10))
			t, _ := num(rec, "train_ns")
			v.Rounds++
			v.TrainNs += t
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
	}
	for ev, byRound := range roundDurs {
		for _, d := range byRound {
			durs[ev] = append(durs[ev], d)
		}
	}
	for ev, ds := range durs {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		sum.Stages[ev] = &stageStats{
			Count: len(ds),
			P50:   percentile(ds, 0.50),
			P95:   percentile(ds, 0.95),
			P99:   percentile(ds, 0.99),
			Max:   ds[len(ds)-1],
		}
	}
	if nodeRoundNs > 0 {
		sum.PipelineOverlapRatio = float64(overlapNs) / float64(nodeRoundNs)
	}
	return sum, nil
}

func (s *summary) peer(name string) *peerStats {
	p := s.Peers[name]
	if p == nil {
		p = &peerStats{}
		s.Peers[name] = p
	}
	return p
}

func (s *summary) session(id string) *sessionStats {
	ss := s.Sessions[id]
	if ss == nil {
		ss = &sessionStats{}
		s.Sessions[id] = ss
	}
	return ss
}

func (s *summary) vehicle(id string) *vehicleStats {
	v := s.Vehicles[id]
	if v == nil {
		v = &vehicleStats{}
		s.Vehicles[id] = v
	}
	return v
}

// percentile is the exact nearest-rank percentile of a sorted sample.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// crossCheck pins the trace-derived counts to the registry snapshot:
// both observe the same execution through independent code paths, so any
// disagreement is an instrumentation bug.
func crossCheck(sum *summary, metricsPath string) error {
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		return err
	}
	var snap struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
			Sum   int64 `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("%s: %w", metricsPath, err)
	}
	checks := []struct {
		counter string
		trace   int64
	}{
		{"fl.rounds", int64(sum.FLRounds)},
		{"node.rounds", int64(sum.NodeRounds)},
		{"node.recv_errors", sum.RecvErrors},
		{"node.stragglers", sum.Stragglers},
		{"core.decode_failures", sum.Decode.SlotFailures},
		{"rs.batch.words", sum.Decode.BatchWords},
		{"rs.batch.recovered", sum.Decode.BatchRecovered},
		{"rs.batch.fallbacks", sum.Decode.BatchFallbacks},
		{"node.corrupt_frames", sum.Recovery.CorruptFrames},
		{"node.retransmits", sum.Recovery.Retransmits},
		{"node.rejoins", sum.Recovery.Rejoins},
		{"node.reconnects", sum.Recovery.Reconnects},
		{"node.degraded_rounds", sum.Recovery.DegradedRounds},
		{"node.client_corrupt_frames", sum.Recovery.ClientCorruptFrames},
		{"node.early_closes", sum.EarlyCloses},
		{"chaos.drops", sum.Chaos.Drops},
		{"chaos.corrupts", sum.Chaos.Corrupts},
		{"chaos.delays", sum.Chaos.Delays},
		{"chaos.crashes", sum.Chaos.Crashes},
		{"fleet.admitted", sum.Fleet.Admitted},
		{"fleet.rejected", sum.Fleet.Rejected},
		{"fleet.queued", sum.Fleet.Queued},
		{"fleet.sessions_started", sum.Fleet.SessionsStarted},
		{"fleet.sessions_done", sum.Fleet.SessionsDone},
		{"fleet.handshake_fails", sum.Fleet.HandshakeFails},
		{"relay.links", sum.Relay.Links},
		{"relay.dial_errors", sum.Relay.DialErrors},
		{"relay.corrupt_forwarded", sum.Relay.CorruptForwarded},
	}
	for _, c := range checks {
		if got := snap.Counters[c.counter]; got != c.trace {
			return fmt.Errorf("trace disagrees with %s: %s = %d in counters, %d derived from trace",
				metricsPath, c.counter, got, c.trace)
		}
	}
	// Histograms and spans observe the SAME measured interval through
	// independent sinks, so when a run records both (-trace and -metrics
	// together) the histogram's sum must equal the trace's Σ dur_ns
	// exactly. fl.train_ns is the odd one out: the fl layer emits the
	// per-vehicle training time as a train_ns field on fl.vehicle events
	// rather than as a span. Skipped when the snapshot predates the
	// histogram (absent key), since the counter checks above still hold.
	var flTrainNs int64
	for _, v := range sum.Vehicles {
		flTrainNs += v.TrainNs
	}
	histChecks := []struct {
		hist  string
		trace int64
	}{
		{"core.aggregate_ns", sum.SpanSums["core.aggregate"]},
		{"lagrange.encode_ns", sum.SpanSums["lagrange.encode"]},
		{"node.train_ns", sum.SpanSums["node.train"]},
		{"node.encode_ns", sum.SpanSums["node.encode"]},
		{"node.upload_ns", sum.SpanSums["node.upload"]},
		{"fl.train_ns", flTrainNs},
	}
	for _, c := range histChecks {
		h, ok := snap.Histograms[c.hist]
		if !ok {
			continue
		}
		if h.Sum != c.trace {
			return fmt.Errorf("trace disagrees with %s: histogram %s sum = %d ns, %d ns derived from trace spans",
				metricsPath, c.hist, h.Sum, c.trace)
		}
	}
	return nil
}

// writeText renders the tables into memory first so only the final Write
// can fail — table building against a bytes.Buffer never does.
func writeText(w io.Writer, sum *summary) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "trace: %d events, %d runs, %d fl rounds, %d node rounds\n",
		sum.Events, sum.Runs, sum.FLRounds, sum.NodeRounds)
	fmt.Fprintf(&b, "decode: %d slot failures, %d batch groups (%d words, %d recovered, %d fallbacks)\n",
		sum.Decode.SlotFailures, sum.Decode.BatchGroups, sum.Decode.BatchWords, sum.Decode.BatchRecovered, sum.Decode.BatchFallbacks)
	if sum.RecvErrors > 0 || sum.Stragglers > 0 {
		fmt.Fprintf(&b, "node: %d receive errors, %d straggler timeouts\n", sum.RecvErrors, sum.Stragglers)
	}
	if sum.PipelineRounds > 0 {
		fmt.Fprintf(&b, "pipeline: %d pipelined rounds, %d early closes, overlap ratio %.3f\n",
			sum.PipelineRounds, sum.EarlyCloses, sum.PipelineOverlapRatio)
	}
	if sum.Chaos != (chaosSummary{}) {
		fmt.Fprintf(&b, "chaos: %d drops, %d corrupts, %d delays, %d crashes injected\n",
			sum.Chaos.Drops, sum.Chaos.Corrupts, sum.Chaos.Delays, sum.Chaos.Crashes)
	}
	if sum.Recovery != (recoverySummary{}) {
		fmt.Fprintf(&b, "recovery: %d corrupt frames (%d client-side), %d retransmits, %d rejoins, %d reconnects, %d degraded rounds\n",
			sum.Recovery.CorruptFrames, sum.Recovery.ClientCorruptFrames, sum.Recovery.Retransmits,
			sum.Recovery.Rejoins, sum.Recovery.Reconnects, sum.Recovery.DegradedRounds)
	}
	if sum.Fleet != (fleetSummary{}) {
		fmt.Fprintf(&b, "fleet: %d admitted, %d queued, %d rejected, %d handshake fails, %d/%d sessions done\n",
			sum.Fleet.Admitted, sum.Fleet.Queued, sum.Fleet.Rejected, sum.Fleet.HandshakeFails,
			sum.Fleet.SessionsDone, sum.Fleet.SessionsStarted)
	}
	if sum.Relay != (relaySummary{}) {
		fmt.Fprintf(&b, "relay: %d links, %d dial errors, %d corrupt frames re-signalled\n",
			sum.Relay.Links, sum.Relay.DialErrors, sum.Relay.CorruptForwarded)
	}

	if len(sum.Sessions) > 0 {
		fmt.Fprintf(&b, "\nadmission by session:\n")
		tw := tabwriter.NewWriter(&b, 2, 8, 2, ' ', 0)
		mustFprintf(tw, "session\tadmitted\tqueued\trejected\trejoins\trounds\n")
		for _, id := range sortedKeys(sum.Sessions) {
			ss := sum.Sessions[id]
			mustFprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\n", id, ss.Admitted, ss.Queued, ss.Rejected, ss.Rejoins, ss.Rounds)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if len(sum.Stages) > 0 {
		fmt.Fprintf(&b, "\nstage latencies (ns):\n")
		tw := tabwriter.NewWriter(&b, 2, 8, 2, ' ', 0)
		mustFprintf(tw, "stage\tcount\tp50\tp95\tp99\tmax\n")
		for _, ev := range sortedKeys(sum.Stages) {
			s := sum.Stages[ev]
			mustFprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\n", ev, s.Count, s.P50, s.P95, s.P99, s.Max)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if len(sum.Peers) > 0 {
		fmt.Fprintf(&b, "\ntransport by peer:\n")
		tw := tabwriter.NewWriter(&b, 2, 8, 2, ' ', 0)
		mustFprintf(tw, "peer\tsent_msgs\tsent_bytes\trecv_msgs\trecv_bytes\n")
		for _, name := range sortedKeys(sum.Peers) {
			p := sum.Peers[name]
			mustFprintf(tw, "%s\t%d\t%d\t%d\t%d\n", name, p.SentMsgs, p.SentBytes, p.RecvMsgs, p.RecvBytes)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if len(sum.Vehicles) > 0 {
		fmt.Fprintf(&b, "\nvehicle training:\n")
		tw := tabwriter.NewWriter(&b, 2, 8, 2, ' ', 0)
		mustFprintf(tw, "vehicle\trounds\ttotal_train_ns\tmean_train_ns\n")
		ids := sortedKeys(sum.Vehicles)
		sort.Slice(ids, func(i, j int) bool {
			a, erra := strconv.Atoi(ids[i])
			b, errb := strconv.Atoi(ids[j])
			if erra != nil || errb != nil {
				return ids[i] < ids[j]
			}
			return a < b
		})
		for _, id := range ids {
			v := sum.Vehicles[id]
			mean := int64(0)
			if v.Rounds > 0 {
				mean = v.TrainNs / int64(v.Rounds)
			}
			mustFprintf(tw, "%s\t%d\t%d\t%d\n", id, v.Rounds, v.TrainNs, mean)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// mustFprintf writes a table row into a tabwriter backed by an in-memory
// buffer, where writes cannot fail (any error would surface at Flush).
func mustFprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
