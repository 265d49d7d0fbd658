// Merged fleet timelines (-merge): combine the fusion centre's trace
// with per-vehicle traces from a distributed run into one causally
// ordered per-round timeline on the fusion centre's clock.
//
// Each vehicle process runs on its own clock. The handshake estimates
// the offset between that clock and the fusion centre's (the RTT
// midpoint of Hello→Setup, emitted as node.clock_offset — DESIGN.md
// §15); -merge applies the first offset each vehicle reported, so its
// train/encode/upload spans land on the fusion timeline next to the
// server-side ingest and round spans they caused. The output is fully
// deterministic for a given set of input files: every sweep is sorted,
// and nothing reads a clock.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
)

// stageSpan is one vehicle-side stage occurrence on the vehicle's own
// clock (t is the span start).
type stageSpan struct {
	t, dur int64
}

// mergeVehicle accumulates one vehicle's view across all input files.
type mergeVehicle struct {
	id        int64
	offset    int64 // fusion_time ≈ vehicle_time + offset
	rtt       int64
	hasOffset bool
	// stages maps round → stage name ("node.train"/"node.encode"/
	// "node.upload") → span, on the vehicle's clock.
	stages map[int64]map[string]stageSpan
}

// mergeRound is the fusion centre's view of one round.
type mergeRound struct {
	t, dur   int64
	span     string
	arrived  int64
	closedBy string
	agg      stageSpan
	hasAgg   bool
	// ingest maps vehicle → fusion-clock arrival time of its upload.
	ingest map[int64]int64
	// stragglers is the set of vehicles that missed the round deadline.
	stragglers map[int64]bool
}

// mergeState is everything the timeline needs, keyed deterministically.
type mergeState struct {
	fusionFile   string
	vehicleFiles []string
	rounds       map[int64]*mergeRound
	vehicles     map[int64]*mergeVehicle
	// roundBySpan resolves a propagated parent span ID back to its
	// round, attaching core.aggregate spans to the round that ran them.
	roundBySpan map[string]int64
	warnings    []string
}

func (m *mergeState) vehicle(id int64) *mergeVehicle {
	v := m.vehicles[id]
	if v == nil {
		v = &mergeVehicle{id: id, stages: map[int64]map[string]stageSpan{}}
		m.vehicles[id] = v
	}
	return v
}

func (m *mergeState) round(r int64) *mergeRound {
	rd := m.rounds[r]
	if rd == nil {
		rd = &mergeRound{ingest: map[int64]int64{}, stragglers: map[int64]bool{}}
		m.rounds[r] = rd
	}
	return rd
}

// causalityTolerance bounds how far an ingest may apparently precede the
// upload that caused it before -merge calls it a causality violation:
// the offset estimate's error is bounded by the handshake RTT, plus a
// floor for scheduling jitter.
const causalityToleranceFloorNs = 1_000_000

// runMerge reads the fusion trace (first path) and the vehicle traces
// (remaining paths) and writes the merged timeline.
func runMerge(paths []string, w io.Writer) error {
	if len(paths) < 1 {
		return fmt.Errorf("-merge needs at least the fusion-centre trace (first file)")
	}
	st := &mergeState{
		fusionFile:   paths[0],
		vehicleFiles: paths[1:],
		rounds:       map[int64]*mergeRound{},
		vehicles:     map[int64]*mergeVehicle{},
		roundBySpan:  map[string]int64{},
	}
	if err := st.loadFusion(paths[0]); err != nil {
		return err
	}
	// The fusion file itself may carry vehicle-side spans (an in-process
	// `lcofl dist` run traces both sides into one file, offset 0), so it
	// is scanned for stages too — loadVehicle with a zero offset.
	if err := st.loadVehicle(paths[0], true); err != nil {
		return err
	}
	for _, p := range paths[1:] {
		if err := st.loadVehicle(p, false); err != nil {
			return err
		}
	}
	st.check()
	return st.write(w)
}

// scanFile reads the trace at path through scanTrace, naming path in
// any error.
func scanFile(path string, fn func(ev string, rec map[string]any) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := scanTrace(f, fn); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadFusion gathers the fusion-side structure: round spans, ingest
// arrivals, stragglers, pipeline close records and aggregate spans.
func (m *mergeState) loadFusion(path string) error {
	// core.aggregate spans whose parent round span arrives later in the
	// file are resolved in a second pass over this slice.
	type pendingAgg struct {
		parent string
		span   stageSpan
	}
	var aggs []pendingAgg
	err := scanFile(path, func(ev string, rec map[string]any) error {
		t, _ := num(rec, "t_ns")
		switch ev {
		case "node.round":
			round, ok := num(rec, "round")
			if !ok {
				return fmt.Errorf("node.round without round")
			}
			d, _ := num(rec, "dur_ns")
			rd := m.round(round)
			rd.t, rd.dur = t, d
			if sp := str(rec, "span"); sp != "" {
				rd.span = sp
				m.roundBySpan[sp] = round
			}
		case "node.pipeline":
			round, _ := num(rec, "round")
			rd := m.round(round)
			rd.arrived, _ = num(rec, "arrived")
			rd.closedBy = str(rec, "closed_by")
		case "node.ingest":
			round, _ := num(rec, "round")
			vehicle, _ := num(rec, "vehicle")
			m.round(round).ingest[vehicle] = t
		case "node.straggler":
			round, _ := num(rec, "round")
			vehicle, _ := num(rec, "vehicle")
			m.round(round).stragglers[vehicle] = true
		case "core.aggregate":
			d, _ := num(rec, "dur_ns")
			aggs = append(aggs, pendingAgg{parent: str(rec, "parent"), span: stageSpan{t: t, dur: d}})
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, a := range aggs {
		if round, ok := m.roundBySpan[a.parent]; ok {
			rd := m.round(round)
			rd.agg, rd.hasAgg = a.span, true
		}
	}
	return nil
}

// loadVehicle gathers one file's vehicle-side view: the clock offset
// from its handshake and the per-round stage spans. isFusion marks the
// fusion file re-scan, whose events are already on the fusion clock and
// must not adopt an offset (an in-process run emits node.clock_offset
// there too, but against the same clock).
func (m *mergeState) loadVehicle(path string, isFusion bool) error {
	return scanFile(path, func(ev string, rec map[string]any) error {
		switch ev {
		case "node.clock_offset":
			vehicle, ok := num(rec, "vehicle")
			if !ok {
				return fmt.Errorf("node.clock_offset without vehicle")
			}
			v := m.vehicle(vehicle)
			// First estimate wins: later ones come from rejoin
			// handshakes after a crash, when the round timeline the
			// merge orders is mostly behind the vehicle already.
			if !v.hasOffset {
				v.rtt, _ = num(rec, "rtt_ns")
				if !isFusion {
					v.offset, _ = num(rec, "offset_ns")
				}
				v.hasOffset = true
			}
		case "node.train", "node.encode", "node.upload":
			round, okR := num(rec, "round")
			vehicle, okV := num(rec, "vehicle")
			dur, okD := num(rec, "dur_ns")
			if !okR || !okV || !okD {
				return nil // plain event (e.g. a resend note), not a span
			}
			t, _ := num(rec, "t_ns")
			v := m.vehicle(vehicle)
			byStage := v.stages[round]
			if byStage == nil {
				byStage = map[string]stageSpan{}
				v.stages[round] = byStage
			}
			// Keep the first occurrence: a retransmit resend re-emits
			// node.upload for the same round, but the original send is
			// what the waterfall should show.
			if _, dup := byStage[ev]; !dup {
				byStage[ev] = stageSpan{t: t, dur: dur}
			}
		}
		return nil
	})
}

// adjust maps a vehicle-clock time onto the fusion clock.
func (v *mergeVehicle) adjust(t int64) int64 { return t + v.offset }

// tolerance is how much apparent causality inversion this vehicle's
// offset estimate permits before it is a real violation.
func (v *mergeVehicle) tolerance() int64 {
	tol := v.rtt
	if tol < causalityToleranceFloorNs {
		tol = causalityToleranceFloorNs
	}
	return tol
}

// check scans the merged structure for causality violations: an upload
// ingested before (tolerance-adjusted) the vehicle finished sending it,
// or a vehicle stage span that ends before it starts.
func (m *mergeState) check() {
	for _, round := range sortedInt64Keys(m.rounds) {
		rd := m.rounds[round]
		for _, vid := range sortedInt64Keys(rd.ingest) {
			v := m.vehicles[vid]
			if v == nil {
				continue
			}
			up, ok := v.stages[round]["node.upload"]
			if !ok {
				continue
			}
			if ingestT := rd.ingest[vid]; ingestT < v.adjust(up.t)-v.tolerance() {
				m.warnings = append(m.warnings, fmt.Sprintf(
					"round %d vehicle %d: ingest at %d ns precedes upload send at %d ns (offset-corrected, tolerance %d ns)",
					round, vid, ingestT, v.adjust(up.t), v.tolerance()))
			}
		}
	}
}

// attributeStraggler explains why a vehicle missed a round: it never
// started (no train span), it was still computing (trained but never
// sent), or the network ate the upload (sent but never ingested).
func (m *mergeState) attributeStraggler(round, vid int64) string {
	v := m.vehicles[vid]
	if v == nil || v.stages[round] == nil {
		return "never started: no trace or no train span for this round"
	}
	stages := v.stages[round]
	if _, ok := stages["node.upload"]; ok {
		return "network: upload sent but never ingested"
	}
	if _, ok := stages["node.train"]; ok {
		return "compute: trained but no upload sent before the deadline"
	}
	return "never started: no train span for this round"
}

// write renders the merged timeline. All output is on the fusion clock;
// per-vehicle stage rows show start+duration for each waterfall stage
// plus the transit gap between upload completion and fusion ingest.
func (m *mergeState) write(w io.Writer) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "merged fleet timeline: %s + %d vehicle trace(s), %d round(s), %d vehicle(s)\n",
		m.fusionFile, len(m.vehicleFiles), len(m.rounds), len(m.vehicles))
	fmt.Fprintf(&b, "clock offsets vs fusion centre (ns):\n")
	for _, vid := range sortedInt64Keys(m.vehicles) {
		v := m.vehicles[vid]
		if v.hasOffset {
			fmt.Fprintf(&b, "  vehicle %d: offset=%d rtt=%d\n", vid, v.offset, v.rtt)
		} else {
			fmt.Fprintf(&b, "  vehicle %d: no clock_offset event (offset assumed 0)\n", vid)
		}
	}
	for _, round := range sortedInt64Keys(m.rounds) {
		rd := m.rounds[round]
		fmt.Fprintf(&b, "round %d: start=%d dur=%d", round, rd.t, rd.dur)
		if rd.closedBy != "" {
			fmt.Fprintf(&b, " arrived=%d closed_by=%s", rd.arrived, rd.closedBy)
		}
		fmt.Fprintf(&b, "\n")
		for _, vid := range m.roundVehicles(round) {
			v := m.vehicles[vid]
			if rd.stragglers[vid] {
				fmt.Fprintf(&b, "  vehicle %d: STRAGGLER — %s\n", vid, m.attributeStraggler(round, vid))
				continue
			}
			stages := map[string]stageSpan{}
			if v != nil {
				stages = v.stages[round]
			}
			fmt.Fprintf(&b, "  vehicle %d:", vid)
			for _, stage := range [...]string{"node.train", "node.encode", "node.upload"} {
				if sp, ok := stages[stage]; ok {
					fmt.Fprintf(&b, " %s@%d+%d", stage[len("node."):], v.adjust(sp.t), sp.dur)
				}
			}
			if ingestT, ok := rd.ingest[vid]; ok {
				fmt.Fprintf(&b, " ingest@%d", ingestT)
				if sp, ok := stages["node.upload"]; ok && v != nil {
					fmt.Fprintf(&b, " transit=%d", ingestT-v.adjust(sp.t+sp.dur))
				}
			}
			fmt.Fprintf(&b, "\n")
		}
		if rd.hasAgg {
			fmt.Fprintf(&b, "  aggregate@%d+%d\n", rd.agg.t, rd.agg.dur)
		}
	}
	if len(m.warnings) == 0 {
		fmt.Fprintf(&b, "causality: ok (no violations)\n")
	} else {
		fmt.Fprintf(&b, "causality: %d violation(s)\n", len(m.warnings))
		for _, warning := range m.warnings {
			fmt.Fprintf(&b, "  WARNING: %s\n", warning)
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// roundVehicles lists every vehicle that participated in (or missed)
// the round, sorted: ingested uploads, stragglers, and any vehicle with
// stage spans for it.
func (m *mergeState) roundVehicles(round int64) []int64 {
	set := map[int64]bool{}
	rd := m.rounds[round]
	for vid := range rd.ingest {
		set[vid] = true
	}
	for vid := range rd.stragglers {
		set[vid] = true
	}
	for vid, v := range m.vehicles {
		if v.stages[round] != nil {
			set[vid] = true
		}
	}
	return sortedInt64Keys(set)
}

func sortedInt64Keys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
