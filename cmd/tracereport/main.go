// Command tracereport summarises a JSONL event trace written by
// `lcofl -trace` (see DESIGN.md §10): how many times each event fired,
// the pipeline close record, stage latency percentiles, the admission
// ledger per session, per-peer transport traffic and per-vehicle
// training time.
//
// Usage:
//
//	tracereport [-json] [-check-metrics metrics.json] [trace.jsonl]
//	tracereport -merge fusion.jsonl [vehicle.jsonl ...]
//
// With no file argument the trace is read from stdin. -json replaces
// the text tables with a machine-readable summary. -check-metrics
// cross-checks the trace against the snapshot written by `lcofl
// -metrics`. Every counter and histogram declares its trace twin where
// it is registered (internal/obs), and the snapshot carries those
// declarations, so the check re-derives each twinned metric — a count
// of its event, or the sum of one numeric field of it (dur_ns for a
// span's histogram) — and fails, naming every metric that disagrees.
// This command names no metric itself. A snapshot that declares no
// twin is an error, not a pass. CI runs the check so the tracer and the
// registry can never drift apart silently.
// -merge combines the fusion centre's trace with per-vehicle traces
// from a distributed run into one causally ordered per-round timeline
// on the fusion clock (see merge.go).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"text/tabwriter"

	"repro/internal/obs"
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

// pipelineStats is the round engine's close record: one node.pipeline
// event per round, EarlyCloses of them budget-closed (node.early_close),
// and OverlapRatio the Σ overlap_ns over Σ node.round dur_ns — the
// fraction of total round time spent ingesting uploads concurrently with
// the rest of the round.
type pipelineStats struct {
	Rounds       int64   `json:"rounds"`
	EarlyCloses  int64   `json:"early_closes"`
	OverlapRatio float64 `json:"overlap_ratio"`
}

type summary struct {
	Events int `json:"events"`
	// Counts is how many times each event fired, by event name.
	Counts   map[string]int64 `json:"counts"`
	Pipeline pipelineStats    `json:"pipeline"`
	// Sessions breaks the fleet admission ledger down per session ID.
	Sessions map[string]*sessionStats `json:"sessions,omitempty"`
	Stages   map[string]*stageStats   `json:"stages"`
	Peers    map[string]*peerStats    `json:"peers"`
	Vehicles map[string]*vehicleStats `json:"vehicles"`
	// sums totals every numeric field but t_ns per event name; it is
	// what crossCheck re-derives a summing twin from.
	sums map[string]map[string]int64
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

// maxTraceLine bounds one trace record.
const maxTraceLine = 8 * 1024 * 1024

// scanTrace streams r's records, one JSON object a line, through fn.
// Every record must carry a string "ev" and a numeric "t_ns"; an error,
// fn's included, names its line. Both the summary and -merge read
// traces through it.
func scanTrace(r io.Reader, fn func(ev string, rec map[string]any) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTraceLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		ev := str(rec, "ev")
		if ev == "" {
			return fmt.Errorf("line %d: event has no \"ev\" field", lineNo)
		}
		if _, ok := rec["t_ns"].(float64); !ok {
			return fmt.Errorf("line %d: event %q has no numeric \"t_ns\"", lineNo, ev)
		}
		if err := fn(ev, rec); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %w", lineNo+1, err)
	}
	return nil
}

func summarize(r io.Reader) (*summary, error) {
	sum := &summary{
		Counts:   map[string]int64{},
		Stages:   map[string]*stageStats{},
		Peers:    map[string]*peerStats{},
		Vehicles: map[string]*vehicleStats{},
		Sessions: map[string]*sessionStats{},
		sums:     map[string]map[string]int64{},
	}
	durs := map[string][]int64{}
	// Spans that carry a round ID are keyed by it and summed per round, so
	// a stage whose work for one round is split across several spans — or
	// interleaved with the next round's by the pipelined engine — yields
	// one latency sample per ROUND, not one per span in arrival order.
	roundDurs := map[string]map[int64]int64{}
	err := scanTrace(r, func(ev string, rec map[string]any) error {
		sum.Events++
		sum.Counts[ev]++
		sums := sum.sums[ev]
		if sums == nil {
			sums = map[string]int64{}
			sum.sums[ev] = sums
		}
		for k, v := range rec {
			if f, ok := v.(float64); ok && k != "t_ns" {
				sums[k] += int64(f)
			}
		}
		if d, ok := num(rec, "dur_ns"); ok {
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
		case "fleet.admit":
			ss := sum.session(str(rec, "session"))
			ss.Admitted++
			if rj, _ := rec["rejoin"].(bool); rj {
				ss.Rejoins++
			}
		case "fleet.reject":
			sum.session(str(rec, "session")).Rejected++
		case "fleet.queue":
			sum.session(str(rec, "session")).Queued++
		case "fleet.session_done":
			if r, ok := num(rec, "rounds"); ok {
				sum.session(str(rec, "session")).Rounds = r
			}
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
		return nil
	})
	if err != nil {
		return nil, err
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
	sum.Pipeline = pipelineStats{
		Rounds:      sum.Counts["node.pipeline"],
		EarlyCloses: sum.Counts["node.early_close"],
	}
	if roundNs := sum.sums["node.round"]["dur_ns"]; roundNs > 0 {
		sum.Pipeline.OverlapRatio = float64(sum.sums["node.pipeline"]["overlap_ns"]) / float64(roundNs)
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

// crossCheck re-derives every metric the snapshot at metricsPath
// declares a twin for — its event's count, or the sum of the declared
// field — and compares it with the counter's value or the histogram's
// sum. Both ledgers observe the same execution through independent
// sinks, so any disagreement is an instrumentation bug; the error names
// every metric that disagrees.
func crossCheck(sum *summary, metricsPath string) error {
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		return err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("%s: %w", metricsPath, err)
	}
	if len(snap.Twins) == 0 {
		return fmt.Errorf("%s declares no trace twins: nothing to check", metricsPath)
	}
	var errs []error
	for _, name := range sortedKeys(snap.Twins) {
		tw := snap.Twins[name]
		if tw.Event == "" {
			continue
		}
		got, ok := snap.Counters[name]
		if h, isHist := snap.Histograms[name]; isHist {
			got, ok = h.Sum, true
		}
		if !ok {
			errs = append(errs, fmt.Errorf("%s declares a twin but has no value", name))
			continue
		}
		want, from := sum.Counts[tw.Event], "count of "+tw.Event
		if tw.Field != "" {
			want, from = sum.sums[tw.Event][tw.Field], fmt.Sprintf("Σ %s over %s", tw.Field, tw.Event)
		}
		if got != want {
			errs = append(errs, fmt.Errorf("%s = %d, trace gives %d (%s)", name, got, want, from))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("trace disagrees with %s:\n%w", metricsPath, errors.Join(errs...))
	}
	return nil
}

// writeText renders the tables into memory first so only the final Write
// can fail — table building against a bytes.Buffer never does.
func writeText(w io.Writer, sum *summary) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "trace: %d events of %d kinds\n", sum.Events, len(sum.Counts))
	if p := sum.Pipeline; p.Rounds > 0 {
		fmt.Fprintf(&b, "pipeline: %d pipelined rounds, %d early closes, overlap ratio %.3f\n",
			p.Rounds, p.EarlyCloses, p.OverlapRatio)
	}

	if len(sum.Counts) > 0 {
		fmt.Fprintf(&b, "\nevents:\n")
		tw := tabwriter.NewWriter(&b, 2, 8, 2, ' ', 0)
		mustFprintf(tw, "event\tcount\n")
		for _, ev := range sortedKeys(sum.Counts) {
			mustFprintf(tw, "%s\t%d\n", ev, sum.Counts[ev])
		}
		if err := tw.Flush(); err != nil {
			return err
		}
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
