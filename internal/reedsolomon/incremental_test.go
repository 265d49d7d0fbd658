package reedsolomon

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/field"
	"repro/internal/poly"
)

// incRef decodes the ingested sub-word through the batch entry:
// DecodeBatchAt over the sorted ingested positions, error positions in
// parent space. The property tests pin IncrementalDecoder to this
// reference for every arrival order; TestDecodeBatchAt pins the reference
// itself to the per-slot Decode.
func incRef(t *testing.T, d *Decoder, words [][]field.Element, positions []int, workers int) ([]*Result, []error) {
	t.Helper()
	sorted, _, subWords := subProblem(d, words, positions)
	results, errs, _ := d.DecodeBatchAt(sorted, subWords, field.NewSeededSource(7), workers)
	return results, errs
}

// subProblem restricts words to the given positions in sorted order: the
// positions, the decoder's points there, and each word's symbols there.
func subProblem(d *Decoder, words [][]field.Element, positions []int) (sorted []int, subXs []field.Element, subWords [][]field.Element) {
	sorted = append([]int(nil), positions...)
	sort.Ints(sorted)
	subXs = make([]field.Element, len(sorted))
	for i, pos := range sorted {
		subXs[i] = d.xs[pos]
	}
	subWords = make([][]field.Element, len(words))
	for s, w := range words {
		subWords[s] = make([]field.Element, len(sorted))
		for i, pos := range sorted {
			subWords[s][i] = w[pos]
		}
	}
	return sorted, subXs, subWords
}

// toParent maps error positions of a sub-problem back to parent space.
func toParent(results []*Result, sorted []int) {
	for _, res := range results {
		if res == nil {
			continue
		}
		for i, idx := range res.ErrorPositions {
			res.ErrorPositions[i] = sorted[idx]
		}
	}
}

func ingestAll(t *testing.T, inc *IncrementalDecoder, words [][]field.Element, order []int) {
	t.Helper()
	syms := make([]field.Element, len(words))
	for _, pos := range order {
		for s, w := range words {
			syms[s] = w[pos]
		}
		if err := inc.Ingest(pos, syms); err != nil {
			t.Fatalf("Ingest(%d): %v", pos, err)
		}
	}
}

func assertSameOutcomes(t *testing.T, label string, got, want []*Result, gotErrs, wantErrs []error) {
	t.Helper()
	for s := range want {
		if (wantErrs[s] == nil) != (gotErrs[s] == nil) {
			t.Fatalf("%s: slot %d error mismatch: got %v want %v", label, s, gotErrs[s], wantErrs[s])
		}
		if wantErrs[s] != nil {
			continue
		}
		if !got[s].Poly.Equal(want[s].Poly) {
			t.Fatalf("%s: slot %d poly mismatch:\n got %v\nwant %v", label, s, got[s].Poly, want[s].Poly)
		}
		if len(got[s].ErrorPositions) != len(want[s].ErrorPositions) {
			t.Fatalf("%s: slot %d error positions: got %v want %v", label, s, got[s].ErrorPositions, want[s].ErrorPositions)
		}
		for i := range want[s].ErrorPositions {
			if got[s].ErrorPositions[i] != want[s].ErrorPositions[i] {
				t.Fatalf("%s: slot %d error positions: got %v want %v", label, s, got[s].ErrorPositions, want[s].ErrorPositions)
			}
		}
	}
}

// TestIncrementalMatchesBatch is the pinned property: for every
// prefix of every arrival order tried (with at least k arrivals), the
// incremental decoder agrees bit-for-bit with DecodeBatch over the same
// positions — polynomials, error positions (parent space), and error/ok
// split — at every worker count.
func TestIncrementalMatchesBatch(t *testing.T) {
	const n, k, S = 24, 8, 6
	rng := rand.New(rand.NewSource(31))
	xs, _ := batchWords(rng, n, k, S, 0, false)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	maxE := MaxErrors(n, k)
	for _, e := range []int{0, 1, maxE, maxE + 2} {
		for _, shared := range []bool{true, false} {
			for trial := 0; trial < 4; trial++ {
				_, words := batchWords(rng, n, k, S, e, shared)
				order := rng.Perm(n)
				for _, m := range []int{k, k + 1, k + 2*maxE, n} {
					prefix := order[:m]
					for _, workers := range []int{1, 2, 8} {
						inc := d.NewIncremental(S)
						ingestAll(t, inc, words, prefix)
						if got := inc.Arrived(); got != m {
							t.Fatalf("Arrived() = %d, want %d", got, m)
						}
						results, errs, stats := inc.Finalize(workers)
						wantRes, wantErrs := incRef(t, d, words, prefix, workers)
						label := fmt.Sprintf("e=%d shared=%v trial=%d m=%d workers=%d", e, shared, trial, m, workers)
						assertSameOutcomes(t, label, results, wantRes, errs, wantErrs)
						if !stats.CombinedOK {
							t.Fatalf("%s: CombinedOK=false with m=%d >= k", label, m)
						}
						if stats.Recovered+stats.Fallbacks != S {
							t.Fatalf("%s: stats %+v do not cover %d slots", label, stats, S)
						}
					}
				}
			}
		}
	}
}

// TestIncrementalOrderIndependent pins that two different arrival orders
// of the same position set produce identical results — the engine's
// bit-identity invariant does not depend on network timing.
func TestIncrementalOrderIndependent(t *testing.T) {
	const n, k, S = 20, 7, 5
	rng := rand.New(rand.NewSource(97))
	xs, words := batchWords(rng, n, k, S, 2, true)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	positions := rng.Perm(n)[:k+5]
	var base []*Result
	var baseErrs []error
	for trial := 0; trial < 6; trial++ {
		order := append([]int(nil), positions...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		inc := d.NewIncremental(S)
		ingestAll(t, inc, words, order)
		results, errs, _ := inc.Finalize(1)
		if trial == 0 {
			base, baseErrs = results, errs
			continue
		}
		assertSameOutcomes(t, fmt.Sprintf("trial=%d", trial), results, base, errs, baseErrs)
	}
}

// TestIncrementalFullPresenceMatchesDecodeBatch checks the m == n case
// reuses the parent decoder and still agrees with a direct DecodeBatch.
func TestIncrementalFullPresenceMatchesDecodeBatch(t *testing.T) {
	const n, k, S = 16, 6, 4
	rng := rand.New(rand.NewSource(5))
	xs, words := batchWords(rng, n, k, S, MaxErrors(n, k), true)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	inc := d.NewIncremental(S)
	ingestAll(t, inc, words, rng.Perm(n))
	results, errs, _ := inc.Finalize(2)
	wantRes, wantErrs, _ := d.DecodeBatch(words, field.NewSeededSource(3), 2)
	assertSameOutcomes(t, "full presence", results, wantRes, errs, wantErrs)
}

func TestIncrementalValidation(t *testing.T) {
	const n, k, S = 10, 4, 3
	rng := rand.New(rand.NewSource(11))
	xs, words := batchWords(rng, n, k, S, 0, false)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	syms := make([]field.Element, S)
	for s, w := range words {
		syms[s] = w[0]
	}

	inc := d.NewIncremental(S)
	if err := inc.Ingest(-1, syms); err == nil {
		t.Fatal("negative position accepted")
	}
	if err := inc.Ingest(n, syms); err == nil {
		t.Fatal("out-of-range position accepted")
	}
	if err := inc.Ingest(0, syms[:S-1]); err == nil {
		t.Fatal("short symbol slice accepted")
	}
	if err := inc.Ingest(0, syms); err != nil {
		t.Fatalf("valid ingest rejected: %v", err)
	}
	if err := inc.Ingest(0, syms); err == nil {
		t.Fatal("duplicate position accepted")
	}

	// Fewer than k arrivals: every slot errors, nothing decodes.
	results, errs, stats := inc.Finalize(1)
	for s := range errs {
		if errs[s] == nil || results[s] != nil {
			t.Fatalf("slot %d: want under-determined error, got %v / %v", s, errs[s], results[s])
		}
	}
	if stats.CombinedOK || stats.Recovered != 0 || stats.Fallbacks != 0 {
		t.Fatalf("under-determined stats: %+v", stats)
	}
	if err := inc.Ingest(1, syms); err == nil {
		t.Fatal("ingest after finalize accepted")
	}
}

// liarWords builds S codewords of degree < k over xs and corrupts them at
// the given positions: every position in liars[s] carries a wrong symbol
// in slot s.
func liarWords(rng *rand.Rand, xs []field.Element, k, S int, liars func(s int) []int) [][]field.Element {
	words := make([][]field.Element, S)
	for s := range words {
		coeffs := make([]field.Element, k)
		for i := range coeffs {
			coeffs[i] = field.Rand(rng)
		}
		ys := poly.New(coeffs...).EvalMany(xs)
		for _, p := range liars(s) {
			ys[p] = ys[p].Add(field.RandNonZero(rng))
		}
		words[s] = ys
	}
	return words
}

// liarsFirst returns an arrival order over positions in which the liars
// come first (shuffled among themselves), so the Newton basis of every
// slot they lie in is interpolated through wrong symbols.
func liarsFirst(rng *rand.Rand, positions, liars []int) []int {
	isLiar := make(map[int]bool, len(liars))
	for _, p := range liars {
		isLiar[p] = true
	}
	order := append([]int(nil), liars...)
	for _, p := range positions {
		if !isLiar[p] {
			order = append(order, p)
		}
	}
	rng.Shuffle(len(liars), func(i, j int) { order[i], order[j] = order[j], order[i] })
	rest := order[len(liars):]
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return order
}

// perSlotRef decodes every slot's ingested sub-word with the per-slot
// Decode of a fresh decoder over the sorted positions — the authority
// both batch entries are pinned to — with error positions in parent space.
func perSlotRef(d *Decoder, words [][]field.Element, positions []int) ([]*Result, []error) {
	sorted, subXs, subWords := subProblem(d, words, positions)
	results := make([]*Result, len(words))
	errs := make([]error, len(words))
	for s, ys := range subWords {
		results[s], errs[s] = decodeWord(subXs, ys, d.k)
	}
	toParent(results, sorted)
	return results, errs
}

// TestFinalizeSharedLocation plants per-position liars among the first K
// arrivals — the case that used to re-run the per-slot Decode for every
// slot — and pins Finalize ≡ DecodeBatch ≡ per-slot Decode on the
// ingested sub-words, for all points present and for a strict subset
// (sub-decoder, positions remapped), from no liars through the budget to
// one beyond it, where every slot must be reported undecodable. The
// stats pin that the errors were located once: no per-slot Decode while
// the liars fit the budget, exactly S once they do not.
func TestFinalizeSharedLocation(t *testing.T) {
	const n, k, S = 24, 8, 6
	rng := rand.New(rand.NewSource(211))
	xs := field.RandDistinct(rng, n, nil)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{n, n - 5} {
		maxE := MaxErrors(m, k)
		for _, e := range []int{0, maxE, maxE + 1} {
			for trial := 0; trial < 3; trial++ {
				positions := rng.Perm(n)[:m]
				liars := append([]int(nil), positions[:e]...)
				words := liarWords(rng, xs, k, S, func(int) []int { return liars })
				wantRes, wantErrs := perSlotRef(d, words, positions)
				for s := range wantErrs {
					if over := e > maxE; over != (wantErrs[s] != nil) {
						t.Fatalf("m=%d e=%d slot %d: per-slot Decode err = %v", m, e, s, wantErrs[s])
					}
				}
				for _, workers := range []int{1, 2, 8} {
					label := fmt.Sprintf("m=%d e=%d trial=%d workers=%d", m, e, trial, workers)
					batchRes, batchErrs := incRef(t, d, words, positions, workers)
					assertSameOutcomes(t, label+" batch", batchRes, wantRes, batchErrs, wantErrs)

					inc := d.NewIncremental(S)
					ingestAll(t, inc, words, liarsFirst(rng, positions, liars))
					results, errs, stats := inc.Finalize(workers)
					assertSameOutcomes(t, label, results, wantRes, errs, wantErrs)
					for s := range errs {
						if errs[s] != nil && !errors.Is(errs[s], ErrTooManyErrors) {
							t.Fatalf("%s: slot %d: %v, want ErrTooManyErrors", label, s, errs[s])
						}
					}
					want := BatchStats{CombinedOK: true, Fallbacks: S}
					switch {
					case e == 0:
						want = BatchStats{CombinedOK: true, Recovered: S}
					case e > maxE:
						want.SlotDecodes = S
					}
					if stats != want {
						t.Fatalf("%s: stats %+v, want %+v", label, stats, want)
					}
				}
			}
		}
	}
}

// TestFinalizeMixedSlots covers rounds where the slots part ways. Liars
// that lie in some slots only leave the other slots' streamed candidates
// standing; a slot with a private error on top of the shared ones is
// still settled by the one shared location; and a lone rejected slot —
// nothing to combine — is the only one to run a per-slot Decode.
func TestFinalizeMixedSlots(t *testing.T) {
	const n, k, S = 24, 8, 6
	rng := rand.New(rand.NewSource(223))
	xs := field.RandDistinct(rng, n, nil)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	maxE := MaxErrors(n, k)
	positions := rng.Perm(n)
	shared := positions[:maxE-1]
	private := positions[n-1] // arrives last: outside every Newton basis
	cases := []struct {
		name  string
		liars func(s int) []int
		want  BatchStats
	}{
		{"half the slots lied to", func(s int) []int {
			if s < S/2 {
				return shared
			}
			return nil
		}, BatchStats{CombinedOK: true, Recovered: S / 2, Fallbacks: S / 2}},
		{"one private error", func(s int) []int {
			if s == 2 {
				return append([]int{private}, shared...)
			}
			return shared
		}, BatchStats{CombinedOK: true, Fallbacks: S}},
		{"one slot lied to", func(s int) []int {
			if s == 4 {
				return shared
			}
			return nil
		}, BatchStats{CombinedOK: true, Recovered: S - 1, Fallbacks: 1, SlotDecodes: 1}},
	}
	for _, tc := range cases {
		words := liarWords(rng, xs, k, S, tc.liars)
		wantRes, wantErrs := perSlotRef(d, words, positions)
		for _, workers := range []int{1, 2, 8} {
			inc := d.NewIncremental(S)
			ingestAll(t, inc, words, liarsFirst(rng, positions, shared))
			results, errs, stats := inc.Finalize(workers)
			label := fmt.Sprintf("%s workers=%d", tc.name, workers)
			assertSameOutcomes(t, label, results, wantRes, errs, wantErrs)
			if stats != tc.want {
				t.Fatalf("%s: stats %+v, want %+v", label, stats, tc.want)
			}
		}
	}
}

// TestFinalizeVerifiesSharedLocation defeats the locator on purpose. Two
// slots carry errors at one position whose values cancel in the random
// combination (the test replays relocate's private coefficient stream),
// so the locator misses that position and recovers both slots through a
// wrong symbol. Verification against each slot's own word must catch it:
// exactly those two slots take the per-slot Decode, the third rejected
// slot is settled by the shared location, and every result still equals
// the per-slot Decode.
func TestFinalizeVerifiesSharedLocation(t *testing.T) {
	const n, k, S = 20, 6, 5
	rng := rand.New(rand.NewSource(227))
	xs := field.RandDistinct(rng, n, nil)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	// Slots 0, 1 and 3 are rejected, in that order, and draw r0, r1, r3.
	src := field.NewSeededSource(n)
	r0, r1 := field.RandNonZero(src), field.RandNonZero(src)
	const p, q = 0, 1 // p is the lowest position, so it enters the erasure support
	words := liarWords(rng, xs, k, S, func(int) []int { return nil })
	e0 := field.RandNonZero(rng)
	words[0][p] = words[0][p].Add(e0)
	words[1][p] = words[1][p].Sub(r0.Mul(e0).Mul(r1.Inv())) // r0·e0 + r1·e1 = 0
	words[3][q] = words[3][q].Add(field.RandNonZero(rng))

	positions := rng.Perm(n)
	wantRes, wantErrs := perSlotRef(d, words, positions)
	for _, workers := range []int{1, 2, 8} {
		inc := d.NewIncremental(S)
		ingestAll(t, inc, words, liarsFirst(rng, positions, []int{p, q}))
		results, errs, stats := inc.Finalize(workers)
		label := fmt.Sprintf("workers=%d", workers)
		assertSameOutcomes(t, label, results, wantRes, errs, wantErrs)
		want := BatchStats{CombinedOK: true, Recovered: S - 3, Fallbacks: 3, SlotDecodes: 2}
		if stats != want {
			t.Fatalf("%s: stats %+v, want %+v", label, stats, want)
		}
	}
}

// TestIngestStopsAtDeadSlots pins that a slot whose mismatches passed the
// full-presence budget is neither evaluated nor recorded any further: its
// list stops at MaxErrors(n, k)+1 entries inside the slab NewIncremental
// laid out, while a live slot keeps an exact record.
func TestIngestStopsAtDeadSlots(t *testing.T) {
	const n, k, S = 30, 6, 3
	rng := rand.New(rand.NewSource(229))
	xs := field.RandDistinct(rng, n, nil)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	order := rng.Perm(n)
	late := order[n-2:] // two errors in slot 2, well inside the budget
	words := liarWords(rng, xs, k, S, func(s int) []int {
		if s == 2 {
			return late
		}
		return order[:1] // slots 0 and 1: a liar in the Newton basis
	})
	inc := d.NewIncremental(S)
	ingestAll(t, inc, words, order)
	dead := d.MaxErrors() + 1
	for s, mis := range inc.mismatch {
		want := dead
		if s == 2 {
			want = len(late)
		}
		if len(mis) != want || cap(mis) != dead {
			t.Errorf("slot %d: %d mismatches recorded (cap %d), want %d (cap %d)", s, len(mis), cap(mis), want, dead)
		}
	}
	results, errs, _ := inc.Finalize(1)
	wantRes, wantErrs := perSlotRef(d, words, order)
	assertSameOutcomes(t, "dead slots", results, wantRes, errs, wantErrs)
}

// Arrived returns how many positions have been ingested so far.
func (inc *IncrementalDecoder) Arrived() int { return len(inc.order) }

// TestEvalSlotsMatchesHorner is the oracle for the evaluation Ingest uses:
// a candidate's value at x taken as the dot product of its monomial
// coefficients with x's powers (four slots per lane group, the rest one by
// one) equals Horner's rule, poly.Poly.Eval, for every degree 0..k−1 at
// the elements 0, 1 and p−1 — with coefficients at p−1, the largest the
// lazy accumulation sees, as well as random ones, and at a k past the
// 64-term chunk bound.
func TestEvalSlotsMatchesHorner(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	top := field.New(field.Modulus - 1)
	for _, k := range []int{16, 70} {
		xs := make([]field.Element, k)
		for i := range xs {
			xs[i] = field.New(uint64(i + 2))
		}
		dec, err := NewDecoder(xs, k)
		if err != nil {
			t.Fatal(err)
		}
		const S = 7 // one four-slot group and a three-slot tail
		inc := dec.NewIncremental(S)
		for deg := 0; deg < k; deg++ {
			for _, x := range []field.Element{field.Zero, field.One, top} {
				for s := 0; s < S; s++ {
					for i := 0; i <= deg; i++ {
						c := field.Rand(rng)
						if s%2 == 0 {
							c = top
						}
						inc.coeffs[s*k+i] = c
					}
				}
				inc.evalSlots(powersInto(inc.pow[:deg+1], x), 0)
				for s := 0; s < S; s++ {
					if want := poly.Poly(inc.coeffs[s*k : s*k+deg+1]).Eval(x); inc.at[s] != want {
						t.Fatalf("k=%d degree %d at %v, slot %d: dot form %v, Horner %v", k, deg, x, s, inc.at[s], want)
					}
				}
			}
		}
	}
}
