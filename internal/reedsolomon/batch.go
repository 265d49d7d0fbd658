package reedsolomon

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/poly"
)

// Batch decoding (DESIGN.md §9).
//
// The L-CoFL fusion centre decodes one Reed–Solomon word per verification
// slot per round, all at the same evaluation points. In the paper's threat
// model a malicious vehicle corrupts what it reports wholesale, so the
// error POSITIONS repeat across slots even though the error values differ.
// DecodeBatch exploits that: it locates the errors once on a random GF(p)
// linear combination of all S words (one full decode), then recovers every
// slot by erasure-only interpolation at the surviving positions — O(V·K)
// per slot instead of a full O(V³)-class decode per slot.
//
// Correctness does not rest on the randomness. Every fast-path result is
// verified against its own received word and accepted only when it is a
// valid decoding (degree ≤ K−1, at most E disagreements), which by unique
// decoding pins it to exactly what the per-slot decoder would return;
// any slot that fails that check falls back to the per-slot Decode. The
// random combination only governs how often the fast path is taken.

// BatchStats reports how a DecodeBatch or IncrementalDecoder.Finalize
// call split its work, for benchmarks and tests asserting the fast path
// engaged.
type BatchStats struct {
	// CombinedOK records whether the shared-locator decode of the random
	// linear combination succeeded. When false every slot fell back.
	CombinedOK bool
	// Recovered counts slots recovered by erasure interpolation at the
	// shared surviving positions (the fast path).
	Recovered int
	// Fallbacks counts slots that re-ran the full per-slot Decode.
	Fallbacks int
	// SlotDecodes counts the full per-slot Decode runs behind the call,
	// the locator decode of the combination not included. For DecodeBatch
	// it equals Fallbacks. Finalize gives the other two fields its own
	// meaning (see there) and reports here how many of its rejected slots
	// the shared error location did not settle.
	SlotDecodes int
}

// DecodeBatch decodes many received words that share the decoder's
// evaluation points, one word per verification slot. It returns one
// Result or one error per word, index-aligned with words; each slot's
// outcome is bit-identical to d.Decode(words[s]) by construction (see the
// package comment above and DESIGN.md §9 for the argument).
//
// src supplies the random combination coefficients; any Source is sound
// here because the coefficients affect only performance, never results.
// workers bounds the per-slot recovery fan-out (< 1 selects GOMAXPROCS,
// 1 is sequential); outcomes are slot-indexed, so they are identical at
// any worker count.
func (d *Decoder) DecodeBatch(words [][]field.Element, src field.Source, workers int) ([]*Result, []error, BatchStats) {
	var out batchOut
	stats := d.decodeBatch(&out, words, src, workers)
	stats.SlotDecodes = stats.Fallbacks
	d.recordBatch(len(words), len(d.xs), stats)
	return out.results, out.errs, stats
}

// decodeBatchAt is DecodeBatch for words received at a subset of the
// decoder's points — the straggler case, where every word misses the same
// positions — writing into out; IncrementalDecoder.Finalize relocates its
// rejected slots through it, with storage it keeps. positions is a
// strictly increasing list of point indices and words[s][t] the symbol
// received at point positions[t]. Each slot's outcome is bit-identical to
// Decode on that sub-word at those points. It is the one place a decoder
// over a subset of another decoder's points is built: all points present
// reuses d (and its pooled scratch), a strict subset batch-decodes on a
// one-call sub-decoder; either way error positions are mapped back through
// positions (the identity when all are present), into the decoder's own
// index space (for the L-CoFL scheme, vehicle IDs).
func (d *Decoder) decodeBatchAt(out *batchOut, positions []int, words [][]field.Element, src field.Source, workers int) BatchStats {
	sub, err := d.subDecoder(positions)
	if err != nil {
		out.begin(len(words))
		for s := range out.errs {
			out.errs[s] = err
		}
		return BatchStats{}
	}
	stats := sub.decodeBatch(out, words, src, workers)
	for _, res := range out.results {
		if res == nil {
			continue
		}
		for i, idx := range res.ErrorPositions {
			res.ErrorPositions[i] = positions[idx]
		}
	}
	return stats
}

// subDecoder returns a decoder over the points at the given strictly
// increasing positions: d itself when that is every point.
func (d *Decoder) subDecoder(positions []int) (*Decoder, error) {
	n := len(d.xs)
	for t, pos := range positions {
		if pos < 0 || pos >= n || (t > 0 && pos <= positions[t-1]) {
			return nil, fmt.Errorf("reedsolomon: positions must be strictly increasing within [0, %d)", n)
		}
	}
	if len(positions) == n {
		return d, nil
	}
	xs := make([]field.Element, len(positions))
	for t, pos := range positions {
		xs[t] = d.xs[pos]
	}
	return NewDecoder(xs, d.k)
}

// recordBatch counts one DecodeBatch or Finalize call on
// the rs.batch.* counters and, when tracing, emits its rs.batch event.
// Exactly one call per entry keeps counter totals equal to the event
// sums, which tracereport -check-metrics reconciles.
func (d *Decoder) recordBatch(words, points int, stats BatchStats) {
	if !d.obs.Enabled() {
		return
	}
	d.cBatchWords.Add(int64(words))
	d.cBatchRecov.Add(int64(stats.Recovered))
	d.cBatchFallback.Add(int64(stats.Fallbacks))
	if stats.CombinedOK {
		d.cCombinedOK.Inc()
	} else {
		d.cCombinedFail.Inc()
	}
	if d.obs.TraceEnabled() {
		d.obs.Emit("rs.batch",
			obs.F("words", words),
			obs.F("points", points),
			obs.F("combined_ok", stats.CombinedOK),
			obs.F("recovered", stats.Recovered),
			obs.F("fallbacks", stats.Fallbacks),
			obs.F("slot_decodes", stats.SlotDecodes))
	}
}

// batchScratch holds the internal (never caller-visible) buffers of one
// decodeBatch call, recycled through Decoder.scratchPool. Everything is
// sized by the decoder's fixed (n, k) except the slot-indexed ok and
// recovered marks, which grow to the largest slot count seen.
type batchScratch struct {
	ok        []bool // words with a valid length, eligible for combination
	recovered []bool
	combined  []field.Element
	comboAcc  *field.Accumulator
	flagged   []bool
	support   []int
	locPoly   poly.Poly // the combination's decoded polynomial, unused beyond the call
	located   []int     // the combination's error positions
	// erasure-basis buffers (see erasureBasisInto)
	ts       []field.Element
	phi      []field.Element
	denomInv []field.Element
	flat     []field.Element
	basis    [][]field.Element
	rec      batchRecovery // the call's recovery state, reused so it allocates nothing
}

// batchOut is where a batch decode writes its per-slot outcomes: the
// results and errs slices, and the slabs the Results point into (Result
// structs, coefficient backing, error positions). DecodeBatch hands a
// fresh one to its caller; IncrementalDecoder keeps one and reuses it.
type batchOut struct {
	results    []*Result
	errs       []error
	resultSlab []Result
	coeffSlab  []field.Element
	errPosSlab []int
}

// begin sizes the outcome slices for S words and clears them.
func (o *batchOut) begin(S int) {
	if cap(o.results) < S {
		o.results = make([]*Result, S)
		o.errs = make([]error, S)
	}
	o.results, o.errs = o.results[:S], o.errs[:S]
	clear(o.results)
	clear(o.errs)
}

// slabs sizes the slabs for S slots of degree bound k and error budget
// maxE; the fast path overwrites whatever of them it hands out.
func (o *batchOut) slabs(S, k, maxE int) {
	if len(o.resultSlab) < S {
		o.resultSlab = make([]Result, S)
	}
	if len(o.coeffSlab) < S*k {
		o.coeffSlab = make([]field.Element, S*k)
	}
	if len(o.errPosSlab) < S*maxE {
		o.errPosSlab = make([]int, S*maxE)
	}
}

func (d *Decoder) getScratch(S int) *batchScratch {
	n, k := len(d.xs), d.k
	sc, _ := d.scratchPool.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{
			combined: make([]field.Element, n),
			comboAcc: field.NewAccumulator(n),
			flagged:  make([]bool, n),
			support:  make([]int, 0, k),
			locPoly:  make(poly.Poly, 0, k),
			located:  make([]int, 0, d.MaxErrors()),
			ts:       make([]field.Element, k),
			phi:      make([]field.Element, k+1),
			denomInv: make([]field.Element, k),
			flat:     make([]field.Element, k*k),
			basis:    make([][]field.Element, k),
		}
	}
	if cap(sc.ok) < S {
		sc.ok = make([]bool, S)
		sc.recovered = make([]bool, S)
	}
	sc.ok = sc.ok[:S]
	sc.recovered = sc.recovered[:S]
	for i := range sc.ok {
		sc.ok[i] = false
		sc.recovered[i] = false
	}
	for i := range sc.flagged {
		sc.flagged[i] = false
	}
	sc.support = sc.support[:0]
	return sc
}

// batchRecovery carries the shared inputs of the per-slot erasure
// recovery so the slot worker is a method, not a closure — the
// sequential path then allocates nothing per slot.
type batchRecovery struct {
	d          *Decoder
	words      [][]field.Element
	sc         *batchScratch
	basis      [][]field.Element
	maxE       int
	coeffSlab  []field.Element
	errPosSlab []int
	resultSlab []Result
	results    []*Result
	errs       []error
}

// slot recovers one verification slot: interpolate through the support
// values (a cached-basis mat-vec, no divisions), then verify against the
// slot's own word. Acceptance requires a valid decoding, so a cancelled
// error inside the support can only force a fallback, never a wrong
// result. All writes are slot-indexed, so outcomes are identical at any
// worker count.
func (br *batchRecovery) slot(s int) {
	d, sc := br.d, br.sc
	if !sc.ok[s] {
		return
	}
	acc, _ := d.slotAccPool.Get().(*field.Accumulator)
	if acc == nil {
		acc = field.NewAccumulator(d.k)
	}
	word := br.words[s]
	for j, i := range sc.support {
		acc.VecMulAddScalar(word[i], br.basis[j])
	}
	// Slot coefficients come from the output's slab: one allocation
	// serves every slot, and the resulting Poly stays valid for the
	// caller after the scratch is pooled again.
	coeffs := poly.Poly(br.coeffSlab[s*d.k : (s+1)*d.k : (s+1)*d.k])
	acc.Reduce(coeffs)
	d.slotAccPool.Put(acc)
	f := coeffsToPoly(coeffs)

	// Error positions live in a cap-limited slab window: the moment one
	// more disagreement would exceed maxE this slot is not a valid
	// decoding and falls back, exactly when the collect-then-count
	// formulation would.
	errPos := br.errPosSlab[s*br.maxE : s*br.maxE : (s+1)*br.maxE]
	for i, x := range d.xs {
		if f.Eval(x) == word[i] {
			continue
		}
		if len(errPos) == br.maxE {
			br.results[s], br.errs[s] = d.Decode(word)
			return
		}
		errPos = append(errPos, i)
	}
	if len(errPos) == 0 {
		errPos = nil // match Decode's nil-when-clean representation
	}
	res := &br.resultSlab[s]
	res.Poly = f
	res.ErrorPositions = errPos
	br.results[s] = res
	sc.recovered[s] = true
}

func (br *batchRecovery) slotErr(s int) error {
	br.slot(s)
	return nil
}

// decodeBatch is DecodeBatch without the observability wrapper, writing
// its outcomes into out. All internal buffers are pooled, so steady state
// it allocates only what out does not yet have room for (and a per-slot
// Decode's Result for a slot the fast path hands on).
func (d *Decoder) decodeBatch(out *batchOut, words [][]field.Element, src field.Source, workers int) BatchStats {
	n := len(d.xs)
	S := len(words)
	out.begin(S)
	results, errs := out.results, out.errs
	var stats BatchStats

	sc := d.getScratch(S)
	defer d.scratchPool.Put(sc)
	eligible := 0
	for s, w := range words {
		if len(w) != n {
			errs[s] = fmt.Errorf("reedsolomon: %d values for %d points", len(w), n)
			continue
		}
		sc.ok[s] = true
		eligible++
	}

	fallbackAll := func() BatchStats {
		for s := range words {
			if sc.ok[s] {
				results[s], errs[s] = d.Decode(words[s])
				stats.Fallbacks++
			}
		}
		return stats
	}

	// A single word gains nothing from combination: the locator decode IS
	// a full decode of that word.
	if eligible < 2 {
		return fallbackAll()
	}

	// Locate the shared error positions: decode Σ_s r_s·y_s with random
	// non-zero r_s. Honest positions carry evaluations of Σ_s r_s·f_s
	// (degree ≤ K−1); a position corrupted in any slot survives the
	// combination except when its error values conspire to cancel, which
	// happens with probability ≤ 1/(p−1) per position (§9).
	for s := range words {
		if sc.ok[s] {
			sc.comboAcc.VecMulAddScalar(field.RandNonZero(src), words[s])
		}
	}
	sc.comboAcc.Reduce(sc.combined)

	_, located, err := d.decodeInto(sc.combined, sc.locPoly, sc.located)
	if err != nil {
		// The union of corrupted positions exceeds the budget (or the
		// slots disagree on the message polynomial's degree support in a
		// way no single word does). Decode each slot on its own.
		return fallbackAll()
	}
	stats.CombinedOK = true

	// Erasure support: the first K positions the locator did not flag.
	// n − |flagged| ≥ n − ⌊(n−K)/2⌋ ≥ K, so the support always fills.
	for _, i := range located {
		sc.flagged[i] = true
	}
	for i := 0; i < n && len(sc.support) < d.k; i++ {
		if !sc.flagged[i] {
			sc.support = append(sc.support, i)
		}
	}
	basis := d.erasureBasisInto(sc)
	maxE := d.MaxErrors()

	out.slabs(S, d.k, maxE)
	br := &sc.rec
	*br = batchRecovery{
		d: d, words: words, sc: sc, basis: basis, maxE: maxE,
		coeffSlab:  out.coeffSlab,
		errPosSlab: out.errPosSlab,
		resultSlab: out.resultSlab,
		results:    results,
		errs:       errs,
	}
	if w := parallel.Workers(workers); w <= 1 {
		for s := 0; s < S; s++ {
			br.slot(s)
		}
	} else {
		_ = parallel.ForEach(w, S, br.slotErr)
	}
	// Tally outside the pool so the counters need no atomics.
	for s := range words {
		if !sc.ok[s] {
			continue
		}
		if sc.recovered[s] {
			stats.Recovered++
		} else {
			stats.Fallbacks++
		}
	}
	*br = batchRecovery{} // the pooled scratch must not pin the call's words
	return stats
}

// erasureBasisInto computes, for each support index j, the monomial
// coefficients of the Lagrange basis polynomial L_j over the support
// points: L_j(x_{support[i]}) = [i == j]. A polynomial interpolating
// values y over the support is then the mat-vec Σ_j y_j·L_j, which the
// batch fast path evaluates with the lazy-reduction accumulator — no
// per-slot divisions, unlike Newton interpolation. The support always
// has exactly k points (see the fill loop in decodeBatch), so every
// buffer comes pre-sized from the pooled scratch; every entry is
// overwritten before it is read.
func (d *Decoder) erasureBasisInto(sc *batchScratch) [][]field.Element {
	k := d.k
	ts := sc.ts
	for j, i := range sc.support {
		ts[j] = d.xs[i]
	}
	// Φ(x) = Π_j (x − ts[j]), degree k.
	phi := sc.phi
	phi[0] = field.One
	deg := 0
	for _, t := range ts {
		phi[deg+1] = phi[deg]
		for c := deg; c > 0; c-- {
			phi[c] = phi[c-1].Sub(t.Mul(phi[c]))
		}
		phi[0] = phi[0].Mul(t.Neg())
		deg++
	}
	// Denominators Π_{i≠j}(ts[j] − ts[i]), inverted in one batch pass.
	denomInv := sc.denomInv
	for j := range ts {
		dj := field.One
		for i := range ts {
			if i != j {
				dj = dj.Mul(ts[j].Sub(ts[i]))
			}
		}
		denomInv[j] = dj
	}
	field.BatchInv(denomInv)
	// L_j = (Φ / (x − ts[j])) · denomInv[j] by synthetic division: O(k)
	// per basis polynomial, O(k²) total.
	basis := sc.basis
	for j := range ts {
		row := sc.flat[j*k : (j+1)*k]
		row[k-1] = phi[k]
		for c := k - 1; c > 0; c-- {
			row[c-1] = phi[c].Add(ts[j].Mul(row[c]))
		}
		for c := range row {
			row[c] = row[c].Mul(denomInv[j])
		}
		basis[j] = row
	}
	return basis
}

// coeffsToPoly canonicalises raw interpolation coefficients, matching
// Decode's representation exactly: trailing zeros stripped and the zero
// polynomial as nil (Decode returns Poly: nil for the all-zero word).
func coeffsToPoly(coeffs poly.Poly) poly.Poly {
	n := len(coeffs)
	for n > 0 && coeffs[n-1] == field.Zero {
		n--
	}
	if n == 0 {
		return nil
	}
	return coeffs[:n]
}
