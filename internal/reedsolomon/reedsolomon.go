// Package reedsolomon implements the decoding side of Lagrange coded
// computing (paper §III-B, Decoding).
//
// The fusion centre receives evaluations ỹ_i of an unknown polynomial
// g(z) = C(H(z)) at the worker points ρ_i. With deg(g) ≤ K-1, V workers
// and E erroneous (malicious) results, g is uniquely recoverable whenever
//
//	K + 2E ≤ V        (equivalently paper eq. 6 with K-1 = (M-1)·deg(C))
//
// Decoding is exact over GF(p) and has two entries, both resting on Gao's
// extended-Euclidean formulation of Reed–Solomon decoding (equivalent to
// Berlekamp–Welch, but branch-free and easier to verify):
//
//   - Decoder.Decode: one received word, errors located and corrected up
//     to the budget.
//   - IncrementalDecoder (Ingest / Finalize): many words at the same
//     points, fed one position at a time as uploads arrive; the errors are
//     located once on a random combination and every word is verified
//     against itself (incremental.go, batch.go).
//
// Decoder.DecodeBatch runs the same batch internals on words already
// gathered; the benchmark's decode layer calls it.
//
// Missing results (stragglers, the paper's first decoding assumption)
// need no entry of their own: the incremental decode runs over exactly
// the positions that arrived.
//
// The paper's §IV Step 3 also names Forney's algorithm; Forney computes
// error VALUES in syndrome-based decoding of BCH-view Reed–Solomon codes,
// which requires evaluation points that are consecutive powers of a
// primitive root. L-CoFL's evaluation points ρ_i are arbitrary distinct
// field elements (a generalized Reed–Solomon code), so this package uses
// the interpolation-view decoder, which subsumes the error-value
// computation. The Berlekamp–Welch linear system itself lives on as the
// test suite's independent oracle for the Gao path.
package reedsolomon

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/poly"
)

// ErrTooManyErrors is returned when no polynomial consistent with the
// error budget explains the received word.
var ErrTooManyErrors = errors.New("reedsolomon: received word is not decodable within the error budget")

// MaxErrors returns the unique-decoding error budget E for n received
// evaluations of a polynomial of degree ≤ k-1: E = ⌊(n-k)/2⌋.
// This is paper eq. 6 rearranged.
func MaxErrors(n, k int) int {
	if n < k {
		return -1
	}
	return (n - k) / 2
}

// Result reports a successful exact decode.
type Result struct {
	// Poly is the reconstructed polynomial of degree ≤ K-1.
	Poly poly.Poly
	// ErrorPositions lists the indices i whose received value disagreed
	// with Poly(xs[i]) — the detected malicious workers.
	ErrorPositions []int
}

// gaoScratch holds the working polynomials of one Gao decode: the
// Newton interpolation buffers and the six dense coefficient buffers the
// Euclidean stage swaps among. All degrees stay ≤ n (DESIGN §9), so
// every buffer is capped at n+1 coefficients and a pooled scratch makes
// the steady-state Euclid loop allocation-free. Buffers are plain
// slices, not poly.Poly values: the loop re-slices them in place, which
// the immutable poly API deliberately does not allow.
type gaoScratch struct {
	coef   []field.Element // divided-difference diagonal (InterpolateInto)
	interp poly.Poly       // received-word interpolation g1
	bufs   [6][]field.Element
}

func newGaoScratch(n int) *gaoScratch {
	sc := &gaoScratch{
		coef:   make([]field.Element, n),
		interp: make(poly.Poly, 0, n),
	}
	for i := range sc.bufs {
		sc.bufs[i] = make([]field.Element, 0, n+1)
	}
	return sc
}

// trimZeros strips trailing zero coefficients, the dense-slice analogue
// of poly normalization (zero polynomial = empty slice).
func trimZeros(p []field.Element) []field.Element {
	n := len(p)
	for n > 0 && p[n-1] == field.Zero {
		n--
	}
	return p[:n]
}

// quoRemInPlace divides r by m (both normalized, m non-empty): the
// quotient is written into quo's backing array and the remainder left in
// r, both returned trimmed. The per-step update r −= c·z^shift·m runs on
// the fused MulAddVec kernel with the negated coefficient.
func quoRemInPlace(r, m, quo []field.Element) (q, rem []field.Element) {
	if len(r) < len(m) {
		return quo[:0], r
	}
	quo = quo[:len(r)-len(m)+1]
	for i := range quo {
		quo[i] = field.Zero
	}
	lcInv := m[len(m)-1].Inv()
	for len(r) >= len(m) {
		shift := len(r) - len(m)
		c := r[len(r)-1].Mul(lcInv)
		quo[shift] = c
		field.MulAddVec(r[shift:], c.Neg(), m)
		// The leading coefficient cancels by construction; deeper
		// cancellation is handled by the trim.
		r = trimZeros(r[:len(r)-1])
	}
	return trimZeros(quo), r
}

// mulInto writes a·b into dst's backing array and returns it trimmed.
func mulInto(dst, a, b []field.Element) []field.Element {
	if len(a) == 0 || len(b) == 0 {
		return dst[:0]
	}
	dst = dst[:len(a)+len(b)-1]
	for i := range dst {
		dst[i] = field.Zero
	}
	for i, ai := range a {
		if ai != field.Zero {
			field.MulAddVec(dst[i:i+len(b)], ai, b)
		}
	}
	return trimZeros(dst)
}

// subInPlace computes a −= b in place (growing a within its capacity as
// needed) and returns it trimmed.
func subInPlace(a, b []field.Element) []field.Element {
	for len(a) < len(b) {
		a = append(a, field.Zero)
	}
	for i, bi := range b {
		a[i] = a[i].Sub(bi)
	}
	return trimZeros(a)
}

// gaoSolve runs the Euclidean stage of Gao decoding, given the locator
// product g0 and the received-word interpolation g1, on caller-provided
// scratch: every intermediate polynomial lives in sc. It copies the decoded polynomial into fDst's backing
// array and the error positions into errDst's, allocating only where
// those lack room (nil allocates both as needed), so a caller with
// buffers of capacity k and MaxErrors(n, k) decodes without allocating.
// A clean word's positions are nil.
func gaoSolve(sc *gaoScratch, xs, ys []field.Element, k int, g0, g1 poly.Poly, fDst poly.Poly, errDst []int) (poly.Poly, []int, error) {
	n := len(xs)
	if g1.IsZero() {
		// All-zero word: the zero polynomial explains it with no errors.
		return nil, nil, nil
	}

	// Partial extended Euclid on (g0, g1), tracking only the g1
	// coefficient v: r = u·g0 + v·g1. Stop when 2·deg(r) < n + k.
	// The six scratch buffers rotate roles as the slice headers swap;
	// their backing arrays are interchangeable and reset per call.
	r0 := append(sc.bufs[0][:0], g0...)
	r1 := append(sc.bufs[1][:0], g1...)
	v0 := sc.bufs[2][:0]
	v1 := append(sc.bufs[3][:0], field.One)
	quo, tmp := sc.bufs[4], sc.bufs[5]
	for 2*(len(r1)-1) >= n+k {
		var q []field.Element
		q, r0 = quoRemInPlace(r0, r1, quo)
		r0, r1 = r1, r0
		v0 = subInPlace(v0, mulInto(tmp, q, v1))
		v0, v1 = v1, v0
		if len(r1) == 0 {
			break
		}
	}
	if len(v1) == 0 {
		return nil, nil, ErrTooManyErrors
	}
	fq, rem := quoRemInPlace(r1, v1, quo)
	if len(rem) != 0 || len(fq)-1 > k-1 {
		return nil, nil, ErrTooManyErrors
	}
	var f poly.Poly
	if len(fq) > 0 {
		f = append(fDst[:0], fq...)
	}

	// Verify the error budget and locate the malicious positions. The
	// slice is sized to the budget up front: the moment one more
	// disagreement would exceed maxE the word is undecodable, exactly
	// when the count-then-check formulation would reject it.
	maxE := MaxErrors(n, k)
	errPos := errDst[:0]
	for i, x := range xs {
		if f.Eval(x) == ys[i] {
			continue
		}
		if len(errPos) == maxE {
			return nil, nil, ErrTooManyErrors
		}
		if cap(errPos) == 0 {
			errPos = make([]int, 0, maxE)
		}
		errPos = append(errPos, i)
	}
	if len(errPos) == 0 {
		errPos = nil
	}
	return f, errPos, nil
}

// Decoder amortises the point-dependent work of decoding across many words
// received at the same evaluation points — the L-CoFL fusion centre
// decodes one word per verification slot per round, all at the fixed
// vehicle points ρ_i. Construction validates the points and precomputes
// g0(z) = Π(z − x_i); each Decode then only interpolates the received
// word and runs the Euclidean stage.
type Decoder struct {
	xs []field.Element
	k  int
	g0 poly.Poly

	// obs metric handles, resolved once in SetObs so the batch decoder's
	// hot loops update lock-free counters without registry lookups. All
	// nil (no-op) by default.
	obs            *obs.Obs
	cBatchWords    *obs.Counter
	cBatchRecov    *obs.Counter
	cBatchFallback *obs.Counter
	cCombinedOK    *obs.Counter
	cCombinedFail  *obs.Counter

	// Scratch pools; all buffers are sized by the decoder's fixed (n, k),
	// so pooled entries never need re-validation. gaoPool recycles the
	// Euclidean-stage working polynomials of Decode, scratchPool the
	// internal buffers of one decodeBatch call, and slotAccPool the
	// width-k accumulators of the per-slot erasure recovery (one per
	// concurrent worker).
	gaoPool     sync.Pool
	scratchPool sync.Pool
	slotAccPool sync.Pool
}

// combinedNoTwin declares the rs.batch.combined_* counters: rs.batch
// carries the combined check's outcome as the boolean combined_ok, which
// no count or numeric sum re-derives.
var combinedNoTwin = obs.NoTwin("rs.batch carries the outcome as the boolean combined_ok")

// SetObs attaches observability to the decoder: DecodeBatch increments
// the rs.batch.* counters and, when tracing is on, emits per-call
// rs.batch events. A nil handle (the default) disables everything at the
// cost of a few nil checks.
func (d *Decoder) SetObs(o *obs.Obs) {
	d.obs = o
	d.cBatchWords = o.Counter("rs.batch.words", obs.SumOf("rs.batch", "words"))
	d.cBatchRecov = o.Counter("rs.batch.recovered", obs.SumOf("rs.batch", "recovered"))
	d.cBatchFallback = o.Counter("rs.batch.fallbacks", obs.SumOf("rs.batch", "fallbacks"))
	d.cCombinedOK = o.Counter("rs.batch.combined_ok", combinedNoTwin)
	d.cCombinedFail = o.Counter("rs.batch.combined_fail", combinedNoTwin)
}

// NewDecoder validates the points and message bound and precomputes the
// locator product.
func NewDecoder(xs []field.Element, k int) (*Decoder, error) {
	if k < 1 {
		return nil, fmt.Errorf("reedsolomon: message degree bound k=%d must be >= 1", k)
	}
	if len(xs) < k {
		return nil, fmt.Errorf("reedsolomon: need at least k=%d evaluation points, got %d", k, len(xs))
	}
	if !field.Distinct(xs) {
		return nil, fmt.Errorf("reedsolomon: evaluation points must be distinct")
	}
	g0 := poly.New(field.One)
	for _, x := range xs {
		g0 = g0.MulLinear(x)
	}
	return &Decoder{xs: append([]field.Element(nil), xs...), k: k, g0: g0}, nil
}

// MaxErrors returns the decoder's error budget ⌊(n−k)/2⌋.
func (d *Decoder) MaxErrors() int { return MaxErrors(len(d.xs), d.k) }

// Decode reconstructs the polynomial from one received word (one value
// per point, in point order). Steady state it allocates only the
// returned Result: interpolation and the Euclidean stage run on pooled
// scratch (the construction-time distinctness check of the points
// licenses the unchecked InterpolateInto).
func (d *Decoder) Decode(ys []field.Element) (*Result, error) {
	f, errPos, err := d.decodeInto(ys, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Poly: f, ErrorPositions: errPos}, nil
}

// decodeInto is Decode writing the polynomial and the error positions
// into the given buffers' backing arrays (see gaoSolve).
func (d *Decoder) decodeInto(ys []field.Element, fDst poly.Poly, errDst []int) (poly.Poly, []int, error) {
	if len(ys) != len(d.xs) {
		return nil, nil, fmt.Errorf("reedsolomon: %d values for %d points", len(ys), len(d.xs))
	}
	sc, ok := d.gaoPool.Get().(*gaoScratch)
	if !ok {
		sc = newGaoScratch(len(d.xs))
	}
	g1 := poly.InterpolateInto(sc.interp, sc.coef, d.xs, ys)
	f, errPos, err := gaoSolve(sc, d.xs, ys, d.k, d.g0, g1, fDst, errDst)
	d.gaoPool.Put(sc)
	return f, errPos, err
}
