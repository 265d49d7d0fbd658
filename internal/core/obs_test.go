package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestObsCountersMirrorLegacyFields drives several Aggregate rounds with
// different outcomes (honest, malicious, straggler-starved) and checks
// the cumulative obs counters equal the sum of the per-round legacy
// fields — the two bookkeeping systems must never drift.
func TestObsCountersMirrorLegacyFields(t *testing.T) {
	ref := refFeatures(t, 16*2)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	clk := &obs.ManualClock{}
	o := obs.New(reg, obs.NewTracer(&buf, clk), clk)

	s, err := NewScheme(ref, SchemeConfig{NumVehicles: 40, NumBatches: 16, Degree: 2, Seed: 11, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	model := polyActivationModel(t, 2, 3)

	var wantFail, wantRecov, wantFall, wantFlagged int
	aggregate := func(ups [][]float64) {
		t.Helper()
		if _, err := s.Aggregate(ups); err != nil {
			t.Fatal(err)
		}
		wantFail += s.DecodeFailures
		wantRecov += s.BatchRecovered
		wantFall += s.BatchFallbacks
		wantFlagged += len(s.SuspectedMalicious())
	}

	// Round 1: all honest.
	aggregate(roundUploads(t, s, model, nil))

	// Round 2: three vehicles corrupted wholesale (budget E = 4).
	ups := roundUploads(t, s, model, nil)
	rng := rand.New(rand.NewSource(5))
	for _, id := range rng.Perm(40)[:3] {
		for j := range ups[id] {
			ups[id][j] = 5 + rng.Float64()*10
		}
	}
	aggregate(ups)
	if wantFlagged == 0 {
		t.Fatal("malicious round flagged nobody; test exercises nothing")
	}

	// Round 3: 12 vehicles silent leaves 28 present, below K = 31 —
	// every slot must fail to decode.
	ups = roundUploads(t, s, model, nil)
	for i := 0; i < 12; i++ {
		ups[i] = nil
	}
	aggregate(ups)
	if s.DecodeFailures != s.Slots() {
		t.Fatalf("starved round: %d failures, want %d", s.DecodeFailures, s.Slots())
	}

	checks := []struct {
		name string
		want int64
	}{
		{"core.decode_failures", int64(wantFail)},
		{"core.flagged_vehicles", int64(wantFlagged)},
		{"core.aggregates", 3},
	}
	for _, c := range checks {
		if got := reg.Snapshot().Counters[c.name]; got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	// The batch-decode layer counts the same traffic from below: every
	// slot the scheme recovered or fell back passed through DecodeBatch.
	if got := reg.Snapshot().Counters["rs.batch.recovered"]; got != int64(wantRecov) {
		t.Errorf("rs.batch.recovered = %d, want %d", got, wantRecov)
	}
	if got := reg.Snapshot().Counters["rs.batch.fallbacks"]; got != int64(wantFall) {
		t.Errorf("rs.batch.fallbacks = %d, want %d", got, wantFall)
	}

	// The trace must carry one core.aggregate span per round whose fields
	// re-sum to the same totals.
	if err := o.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	var spans, traceFail, slotFails int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		switch rec["ev"] {
		case "core.aggregate":
			spans++
			traceFail += int(rec["decode_failures"].(float64))
		case "core.slot_fail":
			slotFails++
		}
	}
	if spans != 3 {
		t.Errorf("trace has %d core.aggregate spans, want 3", spans)
	}
	if traceFail != wantFail || slotFails != wantFail {
		t.Errorf("trace failures: spans sum %d, slot_fail events %d, want %d", traceFail, slotFails, wantFail)
	}
}

// TestObsDisabledSchemeUnchanged pins the default: a scheme without an
// Obs handle keeps all legacy fields working and resolves no metrics.
func TestObsDisabledSchemeUnchanged(t *testing.T) {
	ref := refFeatures(t, 8*2)
	s, err := NewScheme(ref, SchemeConfig{NumVehicles: 20, NumBatches: 8, Degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	model := polyActivationModel(t, 2, 3)
	if _, err := s.Aggregate(roundUploads(t, s, model, nil)); err != nil {
		t.Fatal(err)
	}
	if s.obs.Enabled() {
		t.Fatal("scheme without Obs reports enabled")
	}
	if s.DecodeFailures != 0 || s.BatchRecovered == 0 {
		t.Fatalf("legacy fields broken without obs: failures=%d recovered=%d", s.DecodeFailures, s.BatchRecovered)
	}
}

// TestObsStreamedAdversarialRounds pins the ledger on the streamed path
// when the decoder has to relocate errors: each AggregateStreamed is one
// rs.batch event and one core.batch_group event — the shared recovery
// behind Finalize adds none of its own — and the rs.batch.* counters
// equal the sums of those events' fields, which is what tracereport
// -check-metrics reconciles.
func TestObsStreamedAdversarialRounds(t *testing.T) {
	ref := refFeatures(t, 8*4)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	clk := &obs.ManualClock{}
	o := obs.New(reg, obs.NewTracer(&buf, clk), clk)
	const v = 40
	setProcs(t, 2)
	s, err := NewScheme(ref, SchemeConfig{NumVehicles: v, NumBatches: 8, Degree: 2, Seed: 17, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	model := polyActivationModel(t, 2, 5)
	rounds := []struct {
		liars, absent []int
		fallbacks     int
	}{
		{[]int{0, 1, 2}, nil, s.Slots()},              // first lie, in the Newton basis: every slot relocated
		{[]int{0, 1, 2}, nil, 0},                      // on record: ingested last, candidate accepted
		{[]int{0, 1, 2, 3}, []int{38, 39}, s.Slots()}, // a new liar on a strict subset: relocated on a sub-decoder
	}
	var wantRecov, wantFall int
	for i, r := range rounds {
		ups := roundUploads(t, s, model, nil)
		lieWholesale(ups, r.liars)
		for _, id := range r.absent {
			ups[id] = nil
		}
		order := make([]int, v)
		for id := range order {
			order[id] = id // liars hold the lowest IDs, so they arrive first
		}
		streamedAggregate(t, s, ups, order)
		if s.BatchFallbacks != r.fallbacks || !slices.Equal(s.SuspectedMalicious(), r.liars) {
			t.Fatalf("round %d: %d slots rejected, flagged %v; want %d, %v",
				i, s.BatchFallbacks, s.SuspectedMalicious(), r.fallbacks, r.liars)
		}
		wantRecov += s.BatchRecovered
		wantFall += s.BatchFallbacks
	}

	if err := o.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	sums := map[string]map[string]int64{"rs.batch": {}, "core.batch_group": {}}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		sum, ok := sums[rec["ev"].(string)]
		if !ok {
			continue
		}
		sum["events"]++
		for _, f := range []string{"words", "recovered", "fallbacks"} {
			if x, ok := rec[f].(float64); ok {
				sum[f] += int64(x)
			}
		}
	}
	words := int64(len(rounds) * s.Slots())
	checks := []struct {
		name      string
		got, want int64
	}{
		{"rs.batch events", sums["rs.batch"]["events"], int64(len(rounds))},
		{"rs.batch words", sums["rs.batch"]["words"], words},
		{"rs.batch recovered", sums["rs.batch"]["recovered"], int64(wantRecov)},
		{"rs.batch fallbacks", sums["rs.batch"]["fallbacks"], int64(wantFall)},
		{"core.batch_group events", sums["core.batch_group"]["events"], int64(len(rounds))},
		{"core.batch_group recovered", sums["core.batch_group"]["recovered"], int64(wantRecov)},
		{"core.batch_group fallbacks", sums["core.batch_group"]["fallbacks"], int64(wantFall)},
		{"counter rs.batch.words", reg.Snapshot().Counters["rs.batch.words"], words},
		{"counter rs.batch.recovered", reg.Snapshot().Counters["rs.batch.recovered"], int64(wantRecov)},
		{"counter rs.batch.fallbacks", reg.Snapshot().Counters["rs.batch.fallbacks"], int64(wantFall)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
