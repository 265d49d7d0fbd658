package reedsolomon

import (
	"math/rand"
	"testing"

	"repro/internal/field"
)

// Steady-state allocation pins (ISSUE 7): after warmup the decoder hot
// paths run on pooled scratch and may allocate only what the caller
// keeps. The bounds carry a little headroom over the measured values
// (Decode: 3 — Result, Poly, ErrorPositions; DecodeBatch at S=32: ~11 —
// result/errs slices, three per-call slabs, the recovery dispatcher and
// one BatchInv prefix inside the combined decode) because a GC run can
// clear a sync.Pool mid-measurement; they still sit far below the
// pre-optimisation counts (per-slot interpolation and Euclid chains:
// hundreds per call).

func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(11))
	const n, k = 100, 46
	e := MaxErrors(n, k)
	xs, words := batchWords(rng, n, k, 1, e, true)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	w := words[0]
	for i := 0; i < 3; i++ { // warm the gao scratch pool
		if _, err := d.Decode(w); err != nil {
			t.Fatal(err)
		}
	}
	var res *Result
	avg := testing.AllocsPerRun(100, func() {
		var err error
		res, err = d.Decode(w)
		if err != nil {
			t.Fatal(err)
		}
	})
	if len(res.ErrorPositions) != e {
		t.Fatalf("decode found %d errors, want %d", len(res.ErrorPositions), e)
	}
	if avg > 6 {
		t.Errorf("Decode allocates %.1f times per call, want <= 6", avg)
	}
}

func TestDecodeBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(12))
	const n, k, S = 100, 46, 32
	e := MaxErrors(n, k)
	xs, words := batchWords(rng, n, k, S, e, true)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	src := field.NewSeededSource(5)
	for i := 0; i < 3; i++ { // warm the batch scratch and accumulator pools
		if _, _, stats := d.DecodeBatch(words, src, 1); stats.Recovered != S {
			t.Fatalf("warmup: fast path disengaged: %+v", stats)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		_, _, stats := d.DecodeBatch(words, src, 1)
		if stats.Recovered != S {
			t.Fatalf("fast path disengaged: %+v", stats)
		}
	})
	// The ISSUE 7 acceptance bar is a >= 10x cut from the 857 allocs/op
	// baseline (<= 85); the measured steady state is ~11.
	if avg > 25 {
		t.Errorf("DecodeBatch allocates %.1f times per call, want <= 25", avg)
	}
}

// TestFinalizeRelocateAllocs pins the streamed path at its worst: liars
// fill the Newton basis, so every slot's candidate is rejected and the
// sub-words go through the shared error location. One round — begin,
// ingest, finalize — allocates the decoder's own state (8), the outcome
// slices, the rejected list, the gathered sub-words and the batch
// recovery's slabs: ~30 measured, where one per-slot Decode per rejected
// slot would add three allocations for each of the S slots.
func TestFinalizeRelocateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(13))
	const n, k, S = 64, 16, 48
	e := 19
	xs, words := batchWords(rng, n, k, S, 0, true)
	for _, w := range words {
		for p := 0; p < e; p++ {
			w[p] = w[p].Add(field.One) // positions 0..e-1 lie and arrive first
		}
	}
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	syms := make([][]field.Element, n)
	for p := range syms {
		syms[p] = make([]field.Element, S)
		for s, w := range words {
			syms[p][s] = w[p]
		}
	}
	round := func() {
		inc := d.NewIncremental(S)
		for p := range syms {
			if err := inc.Ingest(p, syms[p]); err != nil {
				t.Fatal(err)
			}
		}
		results, _, stats := inc.Finalize(1)
		if want := (BatchStats{CombinedOK: true, Fallbacks: S}); stats != want {
			t.Fatalf("stats %+v, want %+v", stats, want)
		}
		if len(results[S-1].ErrorPositions) != e {
			t.Fatalf("located %d errors, want %d", len(results[S-1].ErrorPositions), e)
		}
	}
	for i := 0; i < 3; i++ { // warm the decoder's scratch pools
		round()
	}
	if avg := testing.AllocsPerRun(30, round); avg > 45 {
		t.Errorf("adversarial ingest+Finalize allocates %.1f times per round, want <= 45", avg)
	}
}
