package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// streamedAggregate runs AggregateStreamed after ingesting the uploads
// in the given arrival order, mirroring what the pipelined round engine
// does with its receive stream.
func streamedAggregate(t testing.TB, s *Scheme, ups [][]float64, order []int) []float64 {
	t.Helper()
	sink := s.BeginIngest()
	for _, id := range order {
		if ups[id] == nil {
			continue
		}
		if err := sink.Add(id, ups[id]); err != nil {
			t.Fatalf("Add(%d): %v", id, err)
		}
	}
	targets, err := s.AggregateStreamed(sink, ups)
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

// TestAggregateStreamedBitIdentical is the scheme-level half of the
// pipeline invariant: ingesting uploads in ANY arrival order (including
// none at all) and aggregating via AggregateStreamed is bit-identical to
// the plain Aggregate — targets, DecodeFailures, DetectedMalicious and
// the batch recovered/fallback split.
func TestAggregateStreamedBitIdentical(t *testing.T) {
	ref := refFeatures(t, 8*4) // S = 4 slots
	const v, m, degree = 40, 8, 2
	model := polyActivationModel(t, degree, 21)
	rng := rand.New(rand.NewSource(77))
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		cfg := SchemeConfig{NumVehicles: v, NumBatches: m, Degree: degree, Seed: 3}
		streamed, err := NewScheme(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewScheme(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		maxE := streamed.MaxMalicious()
		for _, e := range []int{0, 1, maxE, maxE + 5} {
			ups := roundUploads(t, streamed, model, nil)
			for _, id := range rng.Perm(v)[:e] {
				for j := range ups[id] {
					ups[id][j] = ups[id][j]*2 + 7
				}
			}
			// Straggler mix: some vehicles never arrive at all.
			for _, id := range rng.Perm(v)[:3] {
				ups[id] = nil
			}
			gotT := streamedAggregate(t, streamed, ups, rng.Perm(v))
			wantT, err := plain.Aggregate(ups)
			if err != nil {
				t.Fatal(err)
			}
			for j := range wantT {
				if math.Float64bits(gotT[j]) != math.Float64bits(wantT[j]) {
					t.Fatalf("procs=%d e=%d target[%d]: streamed %g, plain %g", procs, e, j, gotT[j], wantT[j])
				}
			}
			if streamed.DecodeFailures != plain.DecodeFailures {
				t.Fatalf("procs=%d e=%d DecodeFailures: streamed %d, plain %d", procs, e, streamed.DecodeFailures, plain.DecodeFailures)
			}
			for i := range plain.DetectedMalicious {
				if streamed.DetectedMalicious[i] != plain.DetectedMalicious[i] {
					t.Fatalf("procs=%d e=%d DetectedMalicious[%d]: streamed %d, plain %d",
						procs, e, i, streamed.DetectedMalicious[i], plain.DetectedMalicious[i])
				}
			}
			if streamed.BatchRecovered+streamed.BatchFallbacks != plain.BatchRecovered+plain.BatchFallbacks {
				t.Fatalf("procs=%d e=%d batch split: streamed %d+%d, plain %d+%d", procs, e,
					streamed.BatchRecovered, streamed.BatchFallbacks, plain.BatchRecovered, plain.BatchFallbacks)
			}
		}
	}
}

// TestAggregateStreamedPartialDrops pins the close of a round whose sink
// does not hold exactly the present rows — a row missing from the ingest,
// or ingested but absent from the rows — and a repeated close of a
// finished round: each is aggregated afresh, bit-identical to Aggregate.
func TestAggregateStreamedPartialDrops(t *testing.T) {
	ref := refFeatures(t, 8*4)
	const v, m, degree = 40, 8, 1
	model := polyActivationModel(t, degree, 23)
	rng := rand.New(rand.NewSource(31))
	setProcs(t, 2)
	cfg := SchemeConfig{NumVehicles: v, NumBatches: m, Degree: degree, Seed: 5}
	streamed, err := NewScheme(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewScheme(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		ups := roundUploads(t, streamed, model, nil)
		lieWholesale(ups, rng.Perm(v)[:3])
		order := rng.Perm(v)
		sink := streamed.BeginIngest()
		for _, id := range order[1:] { // order[0] is never ingested
			if err := sink.Add(id, ups[id]); err != nil {
				t.Fatal(err)
			}
		}
		rows := ups
		if trial%2 == 1 {
			// Ingest order[0] too, then hand over rows without order[0] and
			// order[1]: the sink holds rows the close never sees.
			if err := sink.Add(order[0], ups[order[0]]); err != nil {
				t.Fatal(err)
			}
			rows = slices.Clone(ups)
			rows[order[0]], rows[order[1]] = nil, nil
		}
		wantT, err := plain.Aggregate(rows)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			gotT, err := streamed.AggregateStreamed(sink, rows)
			if err != nil {
				t.Fatal(err)
			}
			for j := range wantT {
				if math.Float64bits(gotT[j]) != math.Float64bits(wantT[j]) {
					t.Fatalf("trial %d pass %d target[%d]: streamed %g, plain %g", trial, pass, j, gotT[j], wantT[j])
				}
			}
			if !slices.Equal(streamed.DetectedMalicious, plain.DetectedMalicious) {
				t.Fatalf("trial %d pass %d: DetectedMalicious %v, plain %v", trial, pass, streamed.DetectedMalicious, plain.DetectedMalicious)
			}
		}
	}
}

func TestRoundIngestValidation(t *testing.T) {
	ref := refFeatures(t, 8*2)
	setProcs(t, 1)
	cfg := SchemeConfig{NumVehicles: 12, NumBatches: 8, Degree: 1, Seed: 9}
	s, err := NewScheme(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := polyActivationModel(t, 1, 41)
	ups := roundUploads(t, s, model, nil)
	sink := s.BeginIngest()
	if err := sink.Add(-1, ups[0]); err == nil {
		t.Fatal("negative vehicle ID accepted")
	}
	if err := sink.Add(12, ups[0]); err == nil {
		t.Fatal("out-of-range vehicle ID accepted")
	}
	if err := sink.Add(0, ups[0][:3]); err == nil {
		t.Fatal("short upload accepted")
	}
	if err := sink.Add(0, nil); err != nil {
		t.Fatalf("nil upload should be a no-op: %v", err)
	}
	if err := sink.Add(0, ups[0]); err != nil {
		t.Fatalf("valid add rejected: %v", err)
	}
	if err := sink.Add(0, ups[0]); err == nil {
		t.Fatal("duplicate vehicle accepted")
	}
	// A foreign sink type must not break AggregateStreamed.
	var foreign dummySink
	if _, err := s.AggregateStreamed(&foreign, ups); err != nil {
		t.Fatalf("foreign sink: %v", err)
	}
}

type dummySink struct{}

func (*dummySink) Add(int, []float64) error { return nil }

// lieWholesale overwrites every scalar of the given vehicles' uploads,
// verification symbols included — the paper's wholesale liar.
func lieWholesale(ups [][]float64, ids []int) {
	for _, id := range ids {
		for j := range ups[id] {
			ups[id][j] = ups[id][j]*2 + 7
		}
	}
}

// TestAggregateStreamedCleanRecordOrder drives one scheme through a
// session in which the liar set keeps changing, ingesting each round in
// an order chosen to hurt — suspects and liars first. Every round must
// equal the plain Aggregate of a twin scheme bit for bit, with the same
// vehicles flagged; and the split of the streamed decode must show the
// clean-record ordering at work: a vehicle's first lie costs one rejected
// round, and from then on its uploads are ingested last and the streamed
// candidate is accepted whatever the arrival order.
func TestAggregateStreamedCleanRecordOrder(t *testing.T) {
	ref := refFeatures(t, 8*4) // S = 4 slots
	const v, m, degree = 40, 8, 2
	model := polyActivationModel(t, degree, 29)
	for _, procs := range []int{1, 8} {
		setProcs(t, procs)
		cfg := SchemeConfig{NumVehicles: v, NumBatches: m, Degree: degree, Seed: 13}
		streamed, err := NewScheme(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewScheme(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		S, K := streamed.Slots(), streamed.RecoverThreshold()
		many := make([]int, streamed.MaxMalicious()) // vehicles 0..E-1
		reversed := make([]int, len(many))
		for i := range many {
			many[i] = i
			reversed[len(many)-1-i] = i
		}
		absent := make([]int, v-len(many)-(K-1)) // leaves K-1 vehicles that were never flagged
		for i := range absent {
			absent[i] = v - 1 - i
		}
		rounds := []struct {
			name      string
			liars     []int // lie this round
			first     []int // arrive first, in this order; the rest follow by ID
			absent    []int
			nanHalf   int // vehicle sending NaN as one verification half, or -1
			fallbacks int // rejected slots expected of the streamed decode; -1 when it is not the path taken or not determined
		}{
			{"first-time liars in the basis", []int{3, 7, 11}, []int{11, 3, 7}, nil, -1, S},
			{"persistent liars arrive first", []int{3, 7, 11}, []int{7, 11, 3}, nil, -1, 0},
			{"persistent liars arrive last", []int{3, 7, 11}, nil, nil, -1, 0},
			{"a liar turned honest", []int{3, 11}, []int{3, 7, 11}, nil, -1, 0},
			{"a first-time liar joins", []int{3, 11, 20}, []int{20, 3, 11}, nil, -1, S},
			{"a suspect sends a NaN half", []int{3, 11, 20}, []int{3, 11, 20}, nil, 11, 0},
			{"liars at the budget", many, many, nil, -1, S},
			{"K-1 clean arrivals, an honest suspect completes the basis", []int{0, 1}, reversed, absent, -1, 0},
			{"liars at the budget again", many, many, nil, -1, S},
			{"K-1 clean arrivals, a lying suspect completes the basis", []int{0, 1}, many, absent, -1, S},
			{"liars at the budget once more", many, many, nil, -1, S},
			{"suspects turned honest complete the basis", nil, many, absent, -1, 0},
		}
		for _, r := range rounds {
			label := fmt.Sprintf("procs=%d %q", procs, r.name)
			ups := roundUploads(t, streamed, model, nil)
			lieWholesale(ups, r.liars)
			for _, id := range r.absent {
				ups[id] = nil
			}
			if r.nanHalf >= 0 {
				ups[r.nanHalf][1] = math.NaN()
			}
			order := append([]int(nil), r.first...)
			isFirst := make(map[int]bool)
			for _, id := range r.first {
				isFirst[id] = true
			}
			for id := 0; id < v; id++ {
				if !isFirst[id] {
					order = append(order, id)
				}
			}
			gotT := streamedAggregate(t, streamed, ups, order)
			wantT, err := plain.Aggregate(ups)
			if err != nil {
				t.Fatal(err)
			}
			for j := range wantT {
				if math.Float64bits(gotT[j]) != math.Float64bits(wantT[j]) {
					t.Fatalf("%s: target[%d]: streamed %g, plain %g", label, j, gotT[j], wantT[j])
				}
			}
			if streamed.DecodeFailures != plain.DecodeFailures {
				t.Fatalf("%s: DecodeFailures: streamed %d, plain %d", label, streamed.DecodeFailures, plain.DecodeFailures)
			}
			if got, want := streamed.SuspectedMalicious(), plain.SuspectedMalicious(); !slices.Equal(got, want) {
				t.Fatalf("%s: SuspectedMalicious: streamed %v, plain %v", label, got, want)
			}
			if got := streamed.SuspectedMalicious(); !slices.Equal(got, r.liars) {
				t.Fatalf("%s: flagged %v, want the liars %v", label, got, r.liars)
			}
			if r.fallbacks >= 0 && streamed.BatchFallbacks != r.fallbacks {
				t.Fatalf("%s: %d slots rejected by the streamed decode, want %d", label, streamed.BatchFallbacks, r.fallbacks)
			}
			if streamed.BatchRecovered+streamed.BatchFallbacks != S {
				t.Fatalf("%s: split %d+%d does not cover %d slots", label, streamed.BatchRecovered, streamed.BatchFallbacks, S)
			}
		}
	}
}
