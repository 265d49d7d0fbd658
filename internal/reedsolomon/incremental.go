package reedsolomon

import (
	"fmt"
	"sort"

	"repro/internal/field"
	"repro/internal/poly"
)

// Incremental decoding (DESIGN.md §14).
//
// The pipelined round engine feeds uploads into the decoder AS THEY
// ARRIVE instead of waiting for the full round barrier. The decoder
// maintains shared Newton-interpolation state across all verification
// slots: each of the first K arrivals extends every slot's candidate
// polynomial by one divided-difference step (O(S·K) per arrival, with
// one shared nodal polynomial and a single field inversion), and every
// later arrival is merely evaluated against the candidates (O(S·K)).
// By the time the collection window closes, the per-slot interpolation
// work of the batch decoder has already been paid during the waiting.
//
// Correctness never rests on arrival order. An accepted candidate is a
// polynomial of degree ≤ K−1 that disagrees with the ingested word in at
// most E = ⌊(m−K)/2⌋ positions, which by unique decoding pins it to
// exactly what Decode would return for that word; the slots whose
// candidate fails that check (for example because an erroneous upload
// landed among the first K arrivals) are decoded from their ingested
// sub-words by the shared error location of DecodeBatch (§9): one locator
// decode for all of them, each slot verified against its own word, the
// authoritative per-slot Decode for a slot that disagrees. Arrival order
// can therefore shift work between the fast and slow paths, but never
// change a result.

// IncrementalDecoder accumulates one round's uploads position by
// position and decodes all slots over exactly the ingested positions.
// It is built by Decoder.NewIncremental, fed by Ingest, and consumed by
// one Finalize call. It is not safe for concurrent use: the round
// engine ingests from its single collect loop.
type IncrementalDecoder struct {
	d     *Decoder
	slots int

	seen  []bool // parent-position presence mask
	order []int  // parent positions in arrival order
	// nodal is N(x) = Π_j (x − xs[order[j]]) over the interpolated
	// arrivals (the first min(arrivals, k)); coefficient of x^i at index i.
	nodal []field.Element
	// coeffs holds every slot's Newton candidate P_s, slot-major with k
	// coefficients per slot; the valid prefix has min(arrivals, k) terms.
	coeffs []field.Element
	// words stores the ingested symbols slot-major by parent position, so
	// Finalize can rebuild the sub-word of a slot whose candidate failed.
	words []field.Element
	// mismatch collects, per slot, the parent positions (in arrival
	// order) whose symbol disagreed with the slot's candidate, up to
	// MaxErrors(n, k)+1 of them: one more than any Finalize accepts.
	mismatch  [][]int
	finalized bool
}

// NewIncremental begins an incremental decode of `slots` words sharing
// the decoder's evaluation points, to be fed one position at a time.
func (d *Decoder) NewIncremental(slots int) *IncrementalDecoder {
	n, k := len(d.xs), d.k
	inc := &IncrementalDecoder{
		d:        d,
		slots:    slots,
		seen:     make([]bool, n),
		order:    make([]int, 0, n),
		nodal:    make([]field.Element, 1, k+1),
		coeffs:   make([]field.Element, slots*k),
		words:    make([]field.Element, slots*n),
		mismatch: make([][]int, slots),
	}
	inc.nodal[0] = field.One // N = 1 before the first arrival
	width := d.MaxErrors() + 1
	slab := make([]int, slots*width)
	for s := range inc.mismatch {
		inc.mismatch[s] = slab[s*width : s*width : (s+1)*width]
	}
	return inc
}

// Ingest feeds the arrival of position pos: one symbol per slot,
// index-aligned with the slot words of the eventual decode. The first k
// arrivals each extend every slot's candidate polynomial by one Newton
// step; later arrivals are checked against the candidates and recorded.
func (inc *IncrementalDecoder) Ingest(pos int, syms []field.Element) error {
	if inc.finalized {
		return fmt.Errorf("reedsolomon: ingest after finalize")
	}
	n, k := len(inc.d.xs), inc.d.k
	if pos < 0 || pos >= n {
		return fmt.Errorf("reedsolomon: position %d outside [0, %d)", pos, n)
	}
	if inc.seen[pos] {
		return fmt.Errorf("reedsolomon: position %d ingested twice", pos)
	}
	if len(syms) != inc.slots {
		return fmt.Errorf("reedsolomon: %d symbols for %d slots", len(syms), inc.slots)
	}
	x := inc.d.xs[pos]
	j := len(inc.order)
	if j < k {
		// Newton step, shared across slots: one evaluation and one
		// inversion of the nodal polynomial N (x is distinct from every
		// interpolated point, so N(x) ≠ 0), then per slot the update
		// P_s += (y_s − P_s(x))·N(x)^{-1} · N.
		invN := poly.Poly(inc.nodal).Eval(x).Inv()
		for s, y := range syms {
			row := inc.coeffs[s*k : (s+1)*k]
			c := y.Sub(poly.Poly(row[:j]).Eval(x)).Mul(invN)
			field.MulAddVec(row[:j+1], c, inc.nodal[:j+1])
		}
		// N *= (x' − x), in place: degree grows from j to j+1.
		inc.nodal = append(inc.nodal, inc.nodal[j])
		for t := j; t > 0; t-- {
			inc.nodal[t] = inc.nodal[t-1].Sub(x.Mul(inc.nodal[t]))
		}
		inc.nodal[0] = inc.nodal[0].Mul(x.Neg())
	} else {
		// A slot with more than MaxErrors(n, k) mismatches is dead: the
		// budget MaxErrors(m, k) of any Finalize is no larger, so its
		// candidate cannot verify and further evaluations are wasted.
		dead := inc.d.MaxErrors() + 1
		for s, y := range syms {
			if len(inc.mismatch[s]) == dead {
				continue
			}
			row := inc.coeffs[s*k : (s+1)*k]
			if poly.Poly(row).Eval(x) != y {
				inc.mismatch[s] = append(inc.mismatch[s], pos)
			}
		}
	}
	for s, y := range syms {
		inc.words[s*n+pos] = y
	}
	inc.seen[pos] = true
	inc.order = append(inc.order, pos)
	return nil
}

// Finalize decodes every slot over exactly the ingested positions,
// returning one Result or one error per slot. Each slot's outcome is
// bit-identical to running Decode (equivalently DecodeBatch, §9) on the
// sub-word of ingested symbols at the ingested points — independent of
// arrival order and worker count — with ErrorPositions reported in the
// PARENT position space (the decoder's point indices, which for the
// L-CoFL scheme are vehicle IDs). CombinedOK in the returned stats
// records whether the shared interpolation state was usable (at least k
// arrivals); Recovered counts slots whose streamed candidate verified,
// Fallbacks slots whose candidate was rejected (a wasted streamed
// attempt), and SlotDecodes how many of those the shared error location
// left to a per-slot Decode.
func (inc *IncrementalDecoder) Finalize(workers int) ([]*Result, []error, BatchStats) {
	results, errs, stats := inc.finalize(workers)
	inc.d.recordBatch(inc.slots, len(inc.order), stats)
	return results, errs, stats
}

func (inc *IncrementalDecoder) finalize(workers int) ([]*Result, []error, BatchStats) {
	inc.finalized = true
	k, S := inc.d.k, inc.slots
	m := len(inc.order)
	results := make([]*Result, S)
	errs := make([]error, S)
	var stats BatchStats
	if m < k {
		for s := range errs {
			errs[s] = fmt.Errorf("reedsolomon: %d positions ingested, need at least k=%d", m, k)
		}
		return results, errs, stats
	}
	stats.CombinedOK = true
	maxE := MaxErrors(m, k)
	var rejected []int
	for s := 0; s < S; s++ {
		if len(inc.mismatch[s]) > maxE {
			rejected = append(rejected, s)
			continue
		}
		// The streamed candidate is a valid decoding: degree ≤ k−1 by
		// construction and at most E disagreements with the ingested
		// word (the interpolated positions agree exactly), so unique
		// decoding pins it to the per-slot Decode result.
		out := make(poly.Poly, k)
		copy(out, inc.coeffs[s*k:(s+1)*k])
		var errPos []int
		if len(inc.mismatch[s]) > 0 {
			errPos = append([]int(nil), inc.mismatch[s]...)
			sort.Ints(errPos)
		}
		results[s] = &Result{Poly: coeffsToPoly(out), ErrorPositions: errPos}
	}
	stats.Recovered, stats.Fallbacks = S-len(rejected), len(rejected)
	if len(rejected) > 0 {
		stats.SlotDecodes = inc.relocate(rejected, results, errs, workers)
	}
	return results, errs, stats
}

// relocate decodes the slots whose streamed candidate was rejected. Their
// ingested sub-words, over the sorted arrival positions, go through
// decodeBatchAt — the one shared-location recovery (§9): errors located
// once on a random combination, every slot recovered at the unflagged
// positions and verified against its own word, per-slot Decode for a slot
// that disagrees, error positions in parent space. It returns how many
// per-slot Decodes that took.
func (inc *IncrementalDecoder) relocate(rejected []int, results []*Result, errs []error, workers int) int {
	n, m := len(inc.d.xs), len(inc.order)
	sorted := append([]int(nil), inc.order...)
	sort.Ints(sorted)
	words := make([][]field.Element, len(rejected))
	slab := make([]field.Element, len(rejected)*m)
	for t, s := range rejected {
		words[t] = slab[t*m : (t+1)*m]
		for i, pos := range sorted {
			words[t][i] = inc.words[s*n+pos]
		}
	}
	// The combination coefficients select which path computes a slot, never
	// what it returns (§9), so a fixed private seed is as good as any.
	res, es, st := inc.d.decodeBatchAt(sorted, words, field.NewSeededSource(int64(m)), workers)
	for t, s := range rejected {
		results[s], errs[s] = res[t], es[t]
	}
	return st.Fallbacks
}
