package reedsolomon

import (
	"fmt"
	"sort"

	"repro/internal/field"
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
// It is built by Decoder.NewIncremental, fed by Ingest, consumed by one
// Finalize call and made ready for the next round by Reset, which keeps
// every buffer: a decoder reused round after round allocates nothing in
// steady state. It is not safe for concurrent use: the round engine
// ingests from its single collect loop.
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
	mismatch [][]int
	// pow holds x^0 … x^(k−1) of the arrival being ingested, and at every
	// slot's candidate evaluated there.
	pow       []field.Element
	at        []field.Element
	finalized bool

	// Finalize's output, valid until Reset: one Result or error per slot,
	// the accepted candidates' Results, and the storage of the shared
	// recovery of the rejected slots.
	results  []*Result
	errs     []error
	accepted []Result
	rejected []int
	sorted   []int
	relocate relocation
}

// relocation is the storage the recovery of rejected slots reuses.
type relocation struct {
	words [][]field.Element
	slab  []field.Element
	src   field.SeededSource
	out   batchOut
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
		pow:      make([]field.Element, k),
		at:       make([]field.Element, slots),
		results:  make([]*Result, slots),
		errs:     make([]error, slots),
		accepted: make([]Result, slots),
	}
	inc.nodal[0] = field.One // N = 1 before the first arrival
	width := d.MaxErrors() + 1
	slab := make([]int, slots*width)
	for s := range inc.mismatch {
		inc.mismatch[s] = slab[s*width : s*width : (s+1)*width]
	}
	return inc
}

// Reset empties the decoder for a new round over the same points and
// slots, as if NewIncremental had just built it. It invalidates what the
// last Finalize returned.
func (inc *IncrementalDecoder) Reset() {
	clear(inc.seen)
	inc.order = inc.order[:0]
	inc.nodal = append(inc.nodal[:0], field.One)
	clear(inc.coeffs) // a Newton step adds into the next coefficient
	for s := range inc.mismatch {
		inc.mismatch[s] = inc.mismatch[s][:0]
	}
	inc.finalized = false
}

// Ingest feeds the arrival of position pos: one symbol per slot,
// index-aligned with the slot words of the eventual decode. The first k
// arrivals each extend every slot's candidate polynomial by one Newton
// step; later arrivals are checked against the candidates and recorded.
// Every polynomial is evaluated at the arrival's point x as a dot product
// with x's powers, computed once (evalSlots).
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
	pow := powersInto(inc.pow[:min(j+1, k)], x)
	if j < k {
		// Newton step, shared across slots: one evaluation and one
		// inversion of the nodal polynomial N (x is distinct from every
		// interpolated point, so N(x) ≠ 0), then per slot the update
		// P_s += (y_s − P_s(x))·N(x)^{-1} · N.
		invN := field.DotAcc(inc.nodal[:j+1], pow).Inv()
		inc.evalSlots(pow[:j], 0)
		for s, y := range syms {
			row := inc.coeffs[s*k : (s+1)*k]
			c := y.Sub(inc.at[s]).Mul(invN)
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
		// candidate cannot verify and is no longer evaluated.
		dead := inc.d.MaxErrors() + 1
		inc.evalSlots(pow, dead)
		for s, y := range syms {
			if len(inc.mismatch[s]) < dead && inc.at[s] != y {
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

// powersInto fills pow, which holds at least one element (k ≥ 1), with
// x^0, x^1, … and returns it.
func powersInto(pow []field.Element, x field.Element) []field.Element {
	pow[0] = field.One
	for i := 1; i < len(pow); i++ {
		pow[i] = pow[i-1].Mul(x)
	}
	return pow
}

// evalSlots sets at[s] = P_s(x) for every slot from x's powers: the
// candidates are monomial coefficients, so each evaluation is the dot
// product of the slot's first len(pow) coefficients with pow, reduced
// lazily and four slots at a time (field.DotAcc4). It equals Horner's
// rule (poly.Poly.Eval) exactly: both compute the canonical field value.
// With dead > 0 a slot holding dead mismatches is dead and may be
// skipped, its at left stale: a group of four is skipped when all four
// are, and a slot outside the groups when it is.
func (inc *IncrementalDecoder) evalSlots(pow []field.Element, dead int) {
	k, t := inc.d.k, len(pow)
	at, c, mis := inc.at, inc.coeffs, inc.mismatch
	isDead := func(s int) bool { return dead > 0 && len(mis[s]) == dead }
	s := 0
	for ; s+4 <= len(at); s += 4 {
		if isDead(s) && isDead(s+1) && isDead(s+2) && isDead(s+3) {
			continue
		}
		r := c[s*k:]
		at[s], at[s+1], at[s+2], at[s+3] = field.DotAcc4(r[:t], r[k:k+t], r[2*k:2*k+t], r[3*k:3*k+t], pow)
	}
	for ; s < len(at); s++ {
		if !isDead(s) {
			at[s] = field.DotAcc(c[s*k:s*k+t], pow)
		}
	}
}

// Finalize decodes every slot over exactly the ingested positions,
// returning one Result or one error per slot. Each slot's outcome is
// bit-identical to running Decode (equivalently DecodeBatch, §9) on the
// sub-word of ingested symbols at the ingested points — independent of
// arrival order and worker count — with ErrorPositions reported in the
// PARENT position space (the decoder's point indices, which for the
// L-CoFL scheme are vehicle IDs). The slices and Results are storage the
// decoder owns, valid until its next Reset. CombinedOK in the returned
// stats records whether the shared interpolation state was usable (at
// least k arrivals); Recovered counts slots whose streamed candidate
// verified, Fallbacks slots whose candidate was rejected (a wasted
// streamed attempt), and SlotDecodes how many of those the shared error
// location left to a per-slot Decode.
func (inc *IncrementalDecoder) Finalize(workers int) ([]*Result, []error, BatchStats) {
	stats := inc.finalize(workers)
	inc.d.recordBatch(inc.slots, len(inc.order), stats)
	return inc.results, inc.errs, stats
}

func (inc *IncrementalDecoder) finalize(workers int) BatchStats {
	inc.finalized = true
	k, S := inc.d.k, inc.slots
	m := len(inc.order)
	clear(inc.results)
	clear(inc.errs)
	var stats BatchStats
	if m < k {
		err := fmt.Errorf("reedsolomon: %d positions ingested, need at least k=%d", m, k)
		for s := range inc.errs {
			inc.errs[s] = err
		}
		return stats
	}
	stats.CombinedOK = true
	maxE := MaxErrors(m, k)
	inc.rejected = inc.rejected[:0]
	for s := 0; s < S; s++ {
		mis := inc.mismatch[s]
		if len(mis) > maxE {
			inc.rejected = append(inc.rejected, s)
			continue
		}
		// The streamed candidate is a valid decoding: degree ≤ k−1 by
		// construction and at most E disagreements with the ingested
		// word (the interpolated positions agree exactly), so unique
		// decoding pins it to the per-slot Decode result.
		var errPos []int
		if len(mis) > 0 {
			sort.Ints(mis) // no Ingest follows Finalize, so arrival order is spent
			errPos = mis
		}
		res := &inc.accepted[s]
		*res = Result{Poly: coeffsToPoly(inc.coeffs[s*k : (s+1)*k : (s+1)*k]), ErrorPositions: errPos}
		inc.results[s] = res
	}
	stats.Recovered, stats.Fallbacks = S-len(inc.rejected), len(inc.rejected)
	if len(inc.rejected) > 0 {
		stats.SlotDecodes = inc.relocateRejected(workers)
	}
	return stats
}

// relocateRejected decodes the slots whose streamed candidate was
// rejected. Their ingested sub-words, over the sorted arrival positions,
// go through decodeBatchAt — the one shared-location recovery (§9): errors
// located once on a random combination, every slot recovered at the
// unflagged positions and verified against its own word, per-slot Decode
// for a slot that disagrees, error positions in parent space. It returns
// how many per-slot Decodes that took.
func (inc *IncrementalDecoder) relocateRejected(workers int) int {
	n, m := len(inc.d.xs), len(inc.order)
	rl := &inc.relocate
	inc.sorted = append(inc.sorted[:0], inc.order...)
	sort.Ints(inc.sorted)
	if len(rl.slab) < len(inc.rejected)*m {
		rl.slab = make([]field.Element, inc.slots*n)
	}
	rl.words = rl.words[:0]
	for t, s := range inc.rejected {
		w := rl.slab[t*m : (t+1)*m]
		for i, pos := range inc.sorted {
			w[i] = inc.words[s*n+pos]
		}
		rl.words = append(rl.words, w)
	}
	// The combination coefficients select which path computes a slot, never
	// what it returns (§9), so a fixed private seed is as good as any.
	rl.src = *field.NewSeededSource(int64(m))
	st := inc.d.decodeBatchAt(&rl.out, inc.sorted, rl.words, &rl.src, workers)
	for t, s := range inc.rejected {
		inc.results[s], inc.errs[s] = rl.out.results[t], rl.out.errs[t]
	}
	return st.Fallbacks
}
