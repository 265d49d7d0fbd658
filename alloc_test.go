package repro

import (
	"math/rand"
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// TestAggregateAllocs pins the fusion centre's steady-state allocation
// budget at V=40, M=8, degree 2, S=32 slots, adversaries at the full
// eq. 6 budget. The ISSUE 7 acceptance bar is a >= 10x cut from the 1209
// allocs/op baseline (<= 120); after the scratch-reuse pass the measured
// steady state is ~35 (uploads gather, batch decode slabs, per-round
// DetectedMalicious and targets). The bound leaves headroom for a GC
// clearing the decoder scratch pools mid-measurement.
func TestAggregateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, net := allocScheme(t)
	rng := rand.New(rand.NewSource(9))
	malicious := rng.Perm(allocVehicles)[:s.MaxMalicious()]
	ups := allocUploads(t, s, net, malicious)
	for i := 0; i < 3; i++ { // warm the aggregate and decoder scratch
		if _, err := s.Aggregate(ups); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(30, func() {
		if _, err := s.Aggregate(ups); err != nil {
			t.Fatal(err)
		}
	})
	if got := len(s.SuspectedMalicious()); got != len(malicious) {
		t.Fatalf("flagged %d vehicles, want %d", got, len(malicious))
	}
	if avg > 120 {
		t.Errorf("Aggregate allocates %.1f times per call, want <= 120", avg)
	}

	// Trace-context propagation must be free when tracing is off: with no
	// obs attached, a scheme carrying a span parent (the node engine sets
	// one every round regardless) must allocate exactly what the plain
	// scheme allocates — the parent is two stored uint64s, and the span
	// emission path behind them is never reached.
	trace := obs.TraceIDFromSeed(3)
	s.SetSpanParent(obs.SpanContext{Trace: trace, Span: obs.DeriveSpan(trace, "node.round", 0)})
	withParent := testing.AllocsPerRun(30, func() {
		if _, err := s.Aggregate(ups); err != nil {
			t.Fatal(err)
		}
	})
	if withParent != avg {
		t.Errorf("SetSpanParent changed the untraced alloc count: %.1f with parent, %.1f without", withParent, avg)
	}
}

const allocVehicles = 40

// allocScheme builds the pinned scheme (V=40, M=8, degree 2, S=32 slots)
// with a round begun, and the model it broadcast.
func allocScheme(t *testing.T) (*core.Scheme, *nn.Network) {
	t.Helper()
	const m, degree, slots = 8, 2, 32
	act := approx.SymmetricSigmoid()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(act.F, -2, 2, degree)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.New(nn.Config{
		LayerSizes: []int{traffic.NumFeatures, 1},
		Activation: approx.FromPolynomial("ls", p),
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := traffic.Generate(traffic.GenConfig{Rows: m * slots, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewScheme(ds.Features(), core.SchemeConfig{
		NumVehicles: allocVehicles, NumBatches: m, Degree: degree,
		Seed: 3, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginRound(net); err != nil {
		t.Fatal(err)
	}
	return s, net
}

// allocUploads returns one round's uploads with the given vehicles lying
// wholesale.
func allocUploads(t *testing.T, s *core.Scheme, net *nn.Network, malicious []int) [][]float64 {
	t.Helper()
	ups := make([][]float64, allocVehicles)
	for i := range ups {
		var err error
		if ups[i], err = s.Upload(i, net); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range malicious {
		for j := range ups[id] {
			ups[id][j] = ups[id][j]*2 + 7
		}
	}
	return ups
}

// TestAggregateStreamedAllocs extends the budget to the streamed path
// under adversaries at the full eq. 6 budget who upload first, so they
// would fill the decoder's Newton basis. With the same liars every round
// they are on record and ingested last: the streamed candidate is
// accepted (123 measured: three allocations per slot for the results it
// hands out). When the liar set flips every round each lie is a first
// lie: every slot is rejected and relocated by the one shared recovery,
// whose slabs make that the cheaper round in allocations (47 measured) —
// one per-slot Decode per rejected slot would cost three a slot on top.
func TestAggregateStreamedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, net := allocScheme(t)
	e := s.MaxMalicious()
	perm := rand.New(rand.NewSource(9)).Perm(allocVehicles)
	sets := [2][]int{perm[:e], perm[e : 2*e]}
	ups := [2][][]float64{allocUploads(t, s, net, sets[0]), allocUploads(t, s, net, sets[1])}
	round := func(which int) {
		sink := s.BeginIngest()
		for _, id := range perm { // either set arrives within the first 2E
			if err := sink.Add(id, ups[which][id]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.AggregateStreamed(sink, ups[which]); err != nil {
			t.Fatal(err)
		}
		if got := len(s.SuspectedMalicious()); got != e {
			t.Fatalf("flagged %d vehicles, want %d", got, e)
		}
	}
	for i := 0; i < 4; i++ { // warm the aggregate and decoder scratch
		round(i % 2)
	}
	next := 0
	flipping := testing.AllocsPerRun(30, func() {
		round(next % 2)
		next++
		if s.BatchFallbacks != s.Slots() {
			t.Fatalf("first-time liars in the basis, yet only %d of %d slots rejected", s.BatchFallbacks, s.Slots())
		}
	})
	round(0)
	persistent := testing.AllocsPerRun(30, func() {
		round(0)
		if s.BatchFallbacks != 0 {
			t.Fatalf("liars on record, yet %d slots rejected", s.BatchFallbacks)
		}
	})
	if flipping > 90 {
		t.Errorf("streamed round with first-time liars allocates %.1f times, want <= 90", flipping)
	}
	if persistent > 160 {
		t.Errorf("streamed round with persistent liars allocates %.1f times, want <= 160", persistent)
	}
}
