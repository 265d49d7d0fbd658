package reedsolomon

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/poly"
)

// batchWords builds S received words over the same points: one random
// codeword per slot, with e positions corrupted in every slot. When
// shared is true the corrupted positions are the same across slots (the
// L-CoFL threat model: a malicious worker lies in every slot), otherwise
// each slot draws its own positions.
func batchWords(rng *rand.Rand, n, k, S, e int, shared bool) (xs []field.Element, words [][]field.Element) {
	xs = field.RandDistinct(rng, n, nil)
	sharedPos := rng.Perm(n)[:e]
	words = make([][]field.Element, S)
	for s := range words {
		coeffs := make([]field.Element, k)
		for i := range coeffs {
			coeffs[i] = field.Rand(rng)
		}
		ys := poly.New(coeffs...).EvalMany(xs)
		pos := sharedPos
		if !shared {
			pos = rng.Perm(n)[:e]
		}
		for _, p := range pos {
			for {
				v := field.Rand(rng)
				if v != ys[p] {
					ys[p] = v
					break
				}
			}
		}
		words[s] = ys
	}
	return xs, words
}

// assertBatchMatchesPerSlot checks every slot of a DecodeBatch call is
// bit-identical to the per-slot Decode: same error value (by message),
// same polynomial, same error positions in the same order.
func assertBatchMatchesPerSlot(t *testing.T, d *Decoder, words [][]field.Element, results []*Result, errs []error) {
	t.Helper()
	for s, w := range words {
		wantRes, wantErr := d.Decode(w)
		gotRes, gotErr := results[s], errs[s]
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("slot %d: batch err %v, per-slot err %v", s, gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("slot %d: batch err %q, per-slot err %q", s, gotErr, wantErr)
			}
			continue
		}
		if !gotRes.Poly.Equal(wantRes.Poly) {
			t.Fatalf("slot %d: batch poly %v, per-slot poly %v", s, gotRes.Poly, wantRes.Poly)
		}
		if len(gotRes.ErrorPositions) != len(wantRes.ErrorPositions) {
			t.Fatalf("slot %d: batch positions %v, per-slot %v", s, gotRes.ErrorPositions, wantRes.ErrorPositions)
		}
		for i := range gotRes.ErrorPositions {
			if gotRes.ErrorPositions[i] != wantRes.ErrorPositions[i] {
				t.Fatalf("slot %d: batch positions %v, per-slot %v", s, gotRes.ErrorPositions, wantRes.ErrorPositions)
			}
		}
	}
}

func TestDecodeBatchEquivalence(t *testing.T) {
	const n, k, S = 40, 10, 8
	maxE := MaxErrors(n, k)
	for _, workers := range []int{1, 2, 8} {
		for _, shared := range []bool{true, false} {
			for _, e := range []int{0, 1, maxE / 2, maxE, maxE + 3} {
				name := fmt.Sprintf("workers=%d/shared=%v/e=%d", workers, shared, e)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100*workers + 10*e + btoi(shared))))
					xs, words := batchWords(rng, n, k, S, e, shared)
					d, err := NewDecoder(xs, k)
					if err != nil {
						t.Fatal(err)
					}
					src := field.NewSeededSource(7)
					results, errs, _ := d.DecodeBatch(words, src, workers)
					assertBatchMatchesPerSlot(t, d, words, results, errs)
				})
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestDecodeBatchFastPathEngages(t *testing.T) {
	// Shared error positions within budget: the combined decode locates
	// them and every slot should take the erasure fast path.
	rng := rand.New(rand.NewSource(42))
	const n, k, S = 40, 10, 16
	e := MaxErrors(n, k)
	xs, words := batchWords(rng, n, k, S, e, true)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	_, errs, stats := d.DecodeBatch(words, field.NewSeededSource(1), 1)
	for s, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
	}
	if !stats.CombinedOK {
		t.Fatal("combined decode failed on in-budget shared errors")
	}
	if stats.Recovered != S || stats.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want all %d slots recovered", stats, S)
	}
}

func TestDecodeBatchAllFallBackWhenUnionExceedsBudget(t *testing.T) {
	// Disjoint per-slot error positions whose union exceeds the budget:
	// the combined word is undecodable, so every slot must fall back —
	// and still match the per-slot decoder exactly.
	rng := rand.New(rand.NewSource(43))
	const n, k, S = 40, 10, 12
	maxE := MaxErrors(n, k)
	xs, words := batchWords(rng, n, k, S, maxE, false)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	results, errs, stats := d.DecodeBatch(words, field.NewSeededSource(1), 2)
	if stats.CombinedOK {
		t.Skip("random positions happened to overlap within budget")
	}
	if stats.Fallbacks != S || stats.Recovered != 0 {
		t.Fatalf("stats = %+v, want all %d slots fallen back", stats, S)
	}
	assertBatchMatchesPerSlot(t, d, words, results, errs)
}

func TestDecodeBatchMixedValidAndMalformedSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const n, k = 20, 5
	xs, words := batchWords(rng, n, k, 4, 2, true)
	words[1] = words[1][:n-1] // malformed: short word
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	results, errs, _ := d.DecodeBatch(words, field.NewSeededSource(1), 1)
	if errs[1] == nil || results[1] != nil {
		t.Fatalf("malformed slot: res %v err %v, want length error", results[1], errs[1])
	}
	assertBatchMatchesPerSlot(t, d, words, results, errs)
}

func TestDecodeBatchSmallBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const n, k = 20, 5
	xs, words := batchWords(rng, n, k, 3, 2, true)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	// Empty batch.
	results, errs, stats := d.DecodeBatch(nil, field.NewSeededSource(1), 1)
	if len(results) != 0 || len(errs) != 0 || stats.Recovered+stats.Fallbacks != 0 {
		t.Fatalf("empty batch: results=%v errs=%v stats=%+v", results, errs, stats)
	}
	// Single word: combination buys nothing, expect a per-slot fallback.
	results, errs, stats = d.DecodeBatch(words[:1], field.NewSeededSource(1), 1)
	if stats.Fallbacks != 1 || stats.Recovered != 0 {
		t.Fatalf("single word stats = %+v, want one fallback", stats)
	}
	assertBatchMatchesPerSlot(t, d, words[:1], results, errs)
}

func TestDecodeBatchZeroWords(t *testing.T) {
	// All-zero words decode to the nil polynomial with no error positions,
	// exactly as Decode does.
	rng := rand.New(rand.NewSource(46))
	const n, k, S = 20, 5, 4
	xs := field.RandDistinct(rng, n, nil)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	words := make([][]field.Element, S)
	for s := range words {
		words[s] = make([]field.Element, n)
	}
	results, errs, _ := d.DecodeBatch(words, field.NewSeededSource(1), 1)
	for s := range words {
		if errs[s] != nil {
			t.Fatalf("slot %d: %v", s, errs[s])
		}
		if results[s].Poly != nil || results[s].ErrorPositions != nil {
			t.Fatalf("slot %d: %+v, want nil poly and positions", s, *results[s])
		}
	}
	assertBatchMatchesPerSlot(t, d, words, results, errs)
}

// DecodeBatchAt is the tests' entry to decodeBatchAt: DecodeBatch for
// words received at the given subset of d's points, error positions in
// d's own index space, recorded on d like DecodeBatch with the number of
// positions as its point count. It is the oracle the incremental decoder
// is held to.
func (d *Decoder) DecodeBatchAt(positions []int, words [][]field.Element, src field.Source, workers int) ([]*Result, []error, BatchStats) {
	var out batchOut
	stats := d.decodeBatchAt(&out, positions, words, src, workers)
	stats.SlotDecodes = stats.Fallbacks
	d.recordBatch(len(words), len(positions), stats)
	return out.results, out.errs, stats
}

// TestDecodeBatchAt pins the shared sub-decoder routine behind both
// DecodeBatchAt and Finalize's relocation. For every point, a prefix of
// the points and a scattered subset of exactly K+2E of them, E liars
// planted inside the subset are corrected and reported at their PARENT
// positions, exactly as the per-slot Decode of each sub-word says; one
// liar more makes every slot an error, never a wrong polynomial; and
// Finalize over the same arrivals (liars first, so every slot is
// relocated) returns the identical results. Each call is recorded once,
// on the parent decoder.
func TestDecodeBatchAt(t *testing.T) {
	const n, k, S = 24, 8, 5
	rng := rand.New(rand.NewSource(61))
	xs := field.RandDistinct(rng, n, nil)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	d.SetObs(obs.New(reg, nil, nil))
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	scattered := append([]int(nil), rng.Perm(n)[:k+2*3]...)
	sort.Ints(scattered)
	calls := 0
	for _, tc := range []struct {
		name      string
		positions []int
	}{
		{"all", all},
		{"prefix", all[:16]},
		{"scattered K+2E", scattered},
	} {
		maxE := MaxErrors(len(tc.positions), k)
		for _, e := range []int{maxE, maxE + 1} {
			label := fmt.Sprintf("%s e=%d", tc.name, e)
			liars := make([]int, e)
			for i, idx := range rng.Perm(len(tc.positions))[:e] {
				liars[i] = tc.positions[idx]
			}
			sort.Ints(liars)
			words := liarWords(rng, xs, k, S, func(int) []int { return liars })
			wantRes, wantErrs := perSlotRef(d, words, tc.positions)
			_, _, subWords := subProblem(d, words, tc.positions)

			results, errs, stats := d.DecodeBatchAt(tc.positions, subWords, field.NewSeededSource(3), 2)
			assertSameOutcomes(t, label, results, wantRes, errs, wantErrs)
			for s := range words {
				if e > maxE {
					if results[s] != nil || !errors.Is(errs[s], ErrTooManyErrors) {
						t.Fatalf("%s slot %d: %v / %v, want ErrTooManyErrors", label, s, results[s], errs[s])
					}
				} else if errs[s] != nil || !slices.Equal(results[s].ErrorPositions, liars) {
					t.Fatalf("%s slot %d: located %v (err %v), want the liars %v", label, s, results[s], errs[s], liars)
				}
			}
			if stats.Recovered+stats.Fallbacks != S || stats.SlotDecodes != stats.Fallbacks {
				t.Fatalf("%s: stats %+v do not cover %d slots", label, stats, S)
			}

			inc := d.NewIncremental(S)
			ingestAll(t, inc, words, liarsFirst(rng, tc.positions, liars))
			finRes, finErrs, _ := inc.Finalize(2)
			assertSameOutcomes(t, label+" finalize", finRes, results, finErrs, errs)
			calls += 2
		}
	}
	if got, want := reg.Snapshot().Counters["rs.batch.words"], int64(calls*S); got != want {
		t.Errorf("rs.batch.words = %d, want %d: one record per call, on the parent", got, want)
	}

	// Malformed position lists are every slot's error, not a panic.
	_, _, subWords := subProblem(d, liarWords(rng, xs, k, S, func(int) []int { return nil }), all[:k])
	for name, positions := range map[string][]int{
		"unsorted":     {1, 0, 2, 3, 4, 5, 6, 7},
		"duplicate":    {0, 1, 1, 3, 4, 5, 6, 7},
		"out of range": {0, 1, 2, 3, 4, 5, 6, n},
		"negative":     {-1, 1, 2, 3, 4, 5, 6, 7},
		"fewer than k": all[:k-1],
	} {
		results, errs, stats := d.DecodeBatchAt(positions, subWords, field.NewSeededSource(3), 1)
		for s := range subWords {
			if results[s] != nil || errs[s] == nil {
				t.Fatalf("%s slot %d: %v / %v, want an error", name, s, results[s], errs[s])
			}
		}
		if stats != (BatchStats{}) {
			t.Fatalf("%s: stats %+v, want zero", name, stats)
		}
	}
}

func TestDecodeBatchManySeeds(t *testing.T) {
	// The combination coefficients must never affect results, only the
	// fast-path rate: sweep sources and check equivalence every time.
	rng := rand.New(rand.NewSource(47))
	const n, k, S = 30, 7, 6
	e := MaxErrors(n, k)
	xs, words := batchWords(rng, n, k, S, e, true)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		results, errs, _ := d.DecodeBatch(words, field.NewSeededSource(seed), 3)
		assertBatchMatchesPerSlot(t, d, words, results, errs)
	}
}

// BenchmarkDecodeBatch compares batch decoding against per-slot Decode at
// the paper scale (V=100, K=46) for growing slot counts. The batch mode
// amortises the single O(V³)-class locator decode over S slots of O(V·K)
// erasure recovery, so its advantage grows with S.
func BenchmarkDecodeBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(48))
	const n, k = 100, 46
	e := MaxErrors(n, k)
	for _, S := range []int{8, 32} {
		xs, words := batchWords(rng, n, k, S, e, true)
		d, err := NewDecoder(xs, k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("slots=%d/mode=batch", S), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src := field.NewSeededSource(int64(i))
				_, _, stats := d.DecodeBatch(words, src, 1)
				if stats.Recovered != S {
					b.Fatalf("fast path disengaged: %+v", stats)
				}
			}
		})
		b.Run(fmt.Sprintf("slots=%d/mode=perslot", S), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, w := range words {
					if _, err := d.Decode(w); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
