package reedsolomon

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/poly"
)

// FuzzDecodeBatchAgreement pins the contract DESIGN §9 promises: for
// every slot, DecodeBatch returns exactly what a standalone Decode of
// that slot returns — same polynomial, same error positions, same
// error/no-error outcome — regardless of the shared-locator fast path,
// the erasure fallback, and the worker count. The three uint64 inputs
// seed the codeword generator, the corruption count, and the batch
// width, so the mutator explores the whole clean/correctable/overloaded
// space.
func FuzzDecodeBatchAgreement(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(1))  // clean single slot
	f.Add(uint64(2), uint64(3), uint64(4))  // shared corruption at capacity
	f.Add(uint64(3), uint64(4), uint64(2))  // one error beyond capacity
	f.Add(uint64(7), uint64(1), uint64(8))  // wide batch, light corruption
	f.Add(uint64(42), uint64(9), uint64(3)) // heavily overloaded
	f.Fuzz(func(t *testing.T, seed, corrupt, slots uint64) {
		const n, k = 12, 4
		xs := make([]field.Element, n)
		for i := range xs {
			xs[i] = field.New(uint64(i + 1))
		}
		dec, err := NewDecoder(xs, k)
		if err != nil {
			t.Fatal(err)
		}

		S := int(slots%8) + 1
		nErr := int(corrupt % (n + 1))
		gen := field.NewSeededSource(int64(seed%1_000_003) + 1)
		words := make([][]field.Element, S)
		for s := range words {
			coeffs := make([]field.Element, k)
			for i := range coeffs {
				coeffs[i] = field.New(gen.Uint64() % field.Modulus)
			}
			truth := poly.New(coeffs...)
			ys := truth.EvalMany(xs)
			// Corrupt nErr distinct positions; drawing positions and
			// deltas from the same seeded source keeps the case
			// reproducible from the corpus entry alone.
			hit := map[int]bool{}
			for len(hit) < nErr {
				p := int(gen.Uint64() % n)
				if hit[p] {
					continue
				}
				hit[p] = true
				ys[p] = ys[p].Add(field.New(gen.Uint64()%(field.Modulus-1) + 1))
			}
			words[s] = ys
		}

		// Batch decode with its own source (slot outcomes must not
		// depend on how the batch consumes randomness) and workers=2 to
		// cross the parallel path.
		batchRes, batchErrs, _ := dec.DecodeBatch(words, field.NewSeededSource(99), 2)
		if len(batchRes) != S || len(batchErrs) != S {
			t.Fatalf("batch returned %d results / %d errors for %d slots", len(batchRes), len(batchErrs), S)
		}

		for s, ys := range words {
			single, err := dec.Decode(ys)
			if (err == nil) != (batchErrs[s] == nil) {
				t.Fatalf("slot %d: Decode err=%v but DecodeBatch err=%v", s, err, batchErrs[s])
			}
			if err != nil {
				if !errors.Is(err, ErrTooManyErrors) || !errors.Is(batchErrs[s], ErrTooManyErrors) {
					t.Fatalf("slot %d: unexpected error kinds: %v vs %v", s, err, batchErrs[s])
				}
				continue
			}
			if !single.Poly.Equal(batchRes[s].Poly) {
				t.Fatalf("slot %d: polynomials disagree:\n single: %v\n  batch: %v", s, single.Poly, batchRes[s].Poly)
			}
			if !slices.Equal(single.ErrorPositions, batchRes[s].ErrorPositions) {
				t.Fatalf("slot %d: error positions disagree: %v vs %v", s, single.ErrorPositions, batchRes[s].ErrorPositions)
			}
		}
	})
}

// FuzzIncrementalIngest drives an IncrementalDecoder with an arbitrary
// operation script — two bytes per step: a position (shifted so both
// sides of the valid range are reachable) and what to do with it: ingest
// it, ingest it with the wrong symbol count, or finalize early and keep
// going. Nothing may panic; every duplicate, out-of-range position,
// miscounted symbol slice and ingest-after-finalize must be rejected
// with an error and every other ingest accepted; Finalize over the
// accepted arrivals, in whatever order the script produced them, must
// agree with DecodeBatch on the same sub-words; and after Reset the
// decoder fed a second word must agree with a fresh one.
func FuzzIncrementalIngest(f *testing.F) {
	f.Add(uint64(1), []byte{2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0})                                         // clean prefix
	f.Add(uint64(2), []byte{13, 0, 12, 0, 11, 0, 10, 0, 9, 0, 8, 0, 7, 0, 6, 0, 5, 0, 4, 0, 3, 0, 2, 0}) // all points, reversed
	f.Add(uint64(3), []byte{2, 0, 2, 0, 0, 0, 200, 0, 3, 1, 3, 0})                                       // duplicate, both range ends, short symbols
	f.Add(uint64(4), []byte{2, 0, 3, 0, 4, 0, 5, 0, 9, 2, 6, 0, 7, 0})                                   // ingest after finalize
	f.Add(uint64(5), []byte{2, 0, 3, 0})                                                                 // fewer than k arrivals
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		const n, k, S = 12, 4, 3
		xs := make([]field.Element, n)
		for i := range xs {
			xs[i] = field.New(uint64(i + 1))
		}
		dec, err := NewDecoder(xs, k)
		if err != nil {
			t.Fatal(err)
		}
		// Positions 0..liars-1 lie in every slot; the seed picks how many,
		// from none to one past the full-presence budget.
		gen := field.NewSeededSource(int64(seed%1_000_003) + 1)
		liars := int(seed % uint64(MaxErrors(n, k)+2))
		words := make([][]field.Element, S)
		for s := range words {
			coeffs := make([]field.Element, k)
			for i := range coeffs {
				coeffs[i] = field.Rand(gen)
			}
			words[s] = poly.New(coeffs...).EvalMany(xs)
			for p := 0; p < liars; p++ {
				words[s][p] = words[s][p].Add(field.RandNonZero(gen))
			}
		}

		inc := dec.NewIncremental(S)
		seen := make(map[int]bool)
		var accepted []int
		var results []*Result
		var errs []error
		finalized := false
		finalize := func() {
			results, errs, _ = inc.Finalize(2)
			finalized = true
		}
		for i := 0; i+1 < len(script); i += 2 {
			pos, op := int(script[i])-2, script[i+1]%3
			if op == 2 {
				if !finalized {
					finalize()
				}
				continue
			}
			syms := make([]field.Element, S, S+1)
			for s := range syms {
				syms[s] = words[s][((pos%n)+n)%n]
			}
			if op == 1 {
				syms = syms[:S-1+2*(pos&1)] // one short or one long
			}
			valid := !finalized && op == 0 && pos >= 0 && pos < n && !seen[pos]
			err := inc.Ingest(pos, syms)
			if valid != (err == nil) {
				t.Fatalf("step %d: Ingest(%d, %d symbols) after finalize=%v: err = %v, want accepted=%v",
					i/2, pos, len(syms), finalized, err, valid)
			}
			if valid {
				seen[pos] = true
				accepted = append(accepted, pos)
			}
		}
		if !finalized {
			finalize()
		}
		if got := inc.Arrived(); got != len(accepted) {
			t.Fatalf("Arrived() = %d, want %d", got, len(accepted))
		}
		if len(accepted) < k {
			for s := range errs {
				if errs[s] == nil || results[s] != nil {
					t.Fatalf("slot %d decoded from %d < k arrivals", s, len(accepted))
				}
			}
		} else {
			wantRes, wantErrs := incRef(t, dec, words, accepted, 2)
			assertSameOutcomes(t, "finalize vs batch", results, wantRes, errs, wantErrs)
		}

		// Reset, then a second word over the same arrivals in reverse, with
		// its liars at the other end: the reused decoder must agree with a
		// fresh one, so nothing of the first round survives Reset.
		for s := range words {
			coeffs := make([]field.Element, k)
			for i := range coeffs {
				coeffs[i] = field.Rand(gen)
			}
			words[s] = poly.New(coeffs...).EvalMany(xs)
			for p := n - liars; p < n; p++ {
				words[s][p] = words[s][p].Add(field.RandNonZero(gen))
			}
		}
		inc.Reset()
		fresh := dec.NewIncremental(S)
		for i := len(accepted) - 1; i >= 0; i-- {
			syms := make([]field.Element, S)
			for s := range syms {
				syms[s] = words[s][accepted[i]]
			}
			if err := inc.Ingest(accepted[i], syms); err != nil {
				t.Fatalf("reset decoder refused position %d: %v", accepted[i], err)
			}
			if err := fresh.Ingest(accepted[i], syms); err != nil {
				t.Fatal(err)
			}
		}
		gotRes, gotErrs, gotStats := inc.Finalize(2)
		wantRes, wantErrs, wantStats := fresh.Finalize(2)
		assertSameOutcomes(t, "reset vs fresh", gotRes, wantRes, gotErrs, wantErrs)
		if gotStats != wantStats {
			t.Fatalf("reset decoder's stats %+v, fresh %+v", gotStats, wantStats)
		}
	})
}
