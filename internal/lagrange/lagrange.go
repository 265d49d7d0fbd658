// Package lagrange implements the Lagrange-coded-computing (LCC) encoder of
// the L-CoFL paper.
//
// Data is partitioned into M batches X_1..X_M. The encoder associates batch
// m with a node ℓ_m and worker (vehicle) i with an evaluation point ρ_i,
// builds the Lagrange interpolation polynomial
//
//	H(z) = Σ_m X_m · Π_{n≠m} (z-ℓ_n)/(ℓ_m-ℓ_n)        (paper eq. 3)
//
// which satisfies H(ℓ_m) = X_m, and hands worker i the encoded share
// X̃_i = H(ρ_i) (paper eq. 4). Equivalently X̃_i = Σ_m p_m(ρ_i)·X_m with
// basis weights p_m summing to one (paper eq. 8). A polynomial computation
// C applied by every worker then yields evaluations of C(H(z)), which the
// fusion centre decodes with package reedsolomon.
//
// Encoding is exact over GF(p); real-valued data enters through package
// fixedpoint, whose range check is the paper's eq. 9 precondition.
package lagrange

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/field"
	"repro/internal/obs"
)

// Coder encodes batches over GF(p) with fixed nodes and worker points.
// It precomputes the basis denominators and the full V×M worker-weight
// matrix p_m(ρ_i), so per-worker encoding is a cached-matrix kernel:
// O(M) lazy-reduced multiplications per batch element with zero weight
// recomputation per call.
type Coder struct {
	nodes    []field.Element   // ℓ_1..ℓ_M, one per batch
	points   []field.Element   // ρ_1..ρ_V, one per worker
	denomInv []field.Element   // 1 / Π_{n≠m}(ℓ_m - ℓ_n)
	weights  [][]field.Element // weights[i][m] = p_m(ρ_i), cached at construction

	// accPool recycles the lazy accumulator of the vector encode so a
	// steady-state EncodeVectorsInto allocates nothing: each call takes
	// one accumulator and returns it drained. Widths vary per call, so
	// getAcc discards pooled accumulators of the wrong width (they are
	// garbage-collected, not leaked).
	accPool sync.Pool

	// Observability handles, resolved once in SetObs so the encode hot
	// path pays one nil check when disabled and atomic ops when enabled —
	// never a registry lookup.
	obs         *obs.Obs
	cEncCalls   *obs.Counter
	cEncWords   *obs.Counter
	hEncVectors *obs.Histogram
}

// NewCoder validates that nodes and points are pairwise distinct and
// mutually disjoint (the paper requires {ℓ_m} ∩ {ρ_i} = ∅) and returns a
// ready Coder.
func NewCoder(nodes, points []field.Element) (*Coder, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("lagrange: need at least one batch node")
	}
	all := make([]field.Element, 0, len(nodes)+len(points))
	all = append(all, nodes...)
	all = append(all, points...)
	if !field.Distinct(all) {
		return nil, fmt.Errorf("lagrange: nodes and points must be pairwise distinct and disjoint")
	}
	// Denominators are inverted in one BatchInv pass (Montgomery's trick:
	// one Inv plus 3(M-1) multiplications) instead of M full inversions.
	denomInv := make([]field.Element, len(nodes))
	for m := range nodes {
		d := field.One
		for n := range nodes {
			if n != m {
				d = d.Mul(nodes[m].Sub(nodes[n]))
			}
		}
		denomInv[m] = d
	}
	field.BatchInv(denomInv)
	c := &Coder{
		nodes:    append([]field.Element(nil), nodes...),
		points:   append([]field.Element(nil), points...),
		denomInv: denomInv,
	}
	// The worker points are fixed for the coder's lifetime, so the V×M
	// basis-weight matrix is computed exactly once here; every encode call
	// then reads cached rows instead of re-running the weight recurrence
	// per point per call. One flat backing array keeps the rows contiguous.
	flat := make([]field.Element, len(points)*len(nodes))
	c.weights = make([][]field.Element, len(points))
	s := newWeightScratch(len(nodes))
	for i, pt := range c.points {
		row := flat[i*len(nodes) : (i+1)*len(nodes)]
		c.weightsInto(pt, s)
		copy(row, s.w)
		c.weights[i] = row
	}
	return c, nil
}

// SetObs attaches an observability handle: EncodeVectors then counts
// calls and encoded words (lagrange.encode_calls / lagrange.encode_words),
// records wall time in the lagrange.encode_ns histogram, and emits a
// lagrange.encode trace event per call. A nil handle (the default)
// disables all of it at the cost of one pointer check per call.
func (c *Coder) SetObs(o *obs.Obs) {
	c.obs = o
	if o.Enabled() {
		c.cEncCalls = o.Counter("lagrange.encode_calls")
		c.cEncWords = o.Counter("lagrange.encode_words")
		c.hEncVectors = o.Histogram("lagrange.encode_ns", obs.LatencyBuckets())
	}
}

// Nodes returns a copy of the batch nodes ℓ_m.
func (c *Coder) Nodes() []field.Element {
	return append([]field.Element(nil), c.nodes...)
}

// Points returns a copy of the worker points ρ_i.
func (c *Coder) Points() []field.Element {
	return append([]field.Element(nil), c.points...)
}

// weightScratch holds the per-evaluation buffers of the basis-weight
// recurrence so hot loops allocate them once and reuse them across
// evaluation points.
type weightScratch struct {
	w      []field.Element
	prefix []field.Element
}

func newWeightScratch(m int) *weightScratch {
	return &weightScratch{
		w:      make([]field.Element, m),
		prefix: make([]field.Element, m+1),
	}
}

// weightsInto computes the basis weights p_m(z) into s.w.
func (c *Coder) weightsInto(z field.Element, s *weightScratch) {
	// prefix[m] = Π_{n<m}(z-ℓ_n), suffix accumulated backwards: O(M).
	s.prefix[0] = field.One
	for m, node := range c.nodes {
		s.prefix[m+1] = s.prefix[m].Mul(z.Sub(node))
	}
	suffix := field.One
	for m := len(c.nodes) - 1; m >= 0; m-- {
		s.w[m] = s.prefix[m].Mul(suffix).Mul(c.denomInv[m])
		suffix = suffix.Mul(z.Sub(c.nodes[m]))
	}
}

// encodeInto encodes every worker point into dst with one pooled
// accumulator — the body of EncodeVectorsInto.
func (c *Coder) encodeInto(batches, dst [][]field.Element) {
	width := 0
	if len(batches) > 0 {
		width = len(batches[0])
	}
	acc := c.getAcc(width)
	for i := range dst {
		for m, b := range batches {
			acc.VecMulAddScalar(c.weights[i][m], b)
		}
		acc.Reduce(dst[i])
	}
	c.accPool.Put(acc)
}

// getAcc takes a pooled accumulator of the given width, allocating only
// when the pool is empty or holds one of a different width.
func (c *Coder) getAcc(width int) *field.Accumulator {
	if a, ok := c.accPool.Get().(*field.Accumulator); ok && a.Len() == width {
		return a
	}
	return field.NewAccumulator(width)
}

// EncodeVectors encodes vector batches (each batch a slice of equal
// length): the m-th batch is a data vector, and worker i receives the
// componentwise combination Σ_m p_m(ρ_i)·X_m. The per-worker rows are
// carved from one flat allocation; callers that reuse output buffers
// across rounds should call EncodeVectorsInto, which allocates nothing
// in steady state.
func (c *Coder) EncodeVectors(batches [][]field.Element) ([][]field.Element, error) {
	if len(batches) != len(c.nodes) {
		return nil, fmt.Errorf("lagrange: got %d batches, coder has %d nodes", len(batches), len(c.nodes))
	}
	width := len(batches[0])
	flat := make([]field.Element, len(c.points)*width)
	out := make([][]field.Element, len(c.points))
	for i := range out {
		out[i] = flat[i*width : (i+1)*width : (i+1)*width]
	}
	if err := c.EncodeVectorsInto(batches, out); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeVectorsInto is EncodeVectors with caller-provided destination
// rows: dst must hold one slice of the common batch width per worker
// point. Steady-state calls allocate nothing — the lazy accumulators
// come from a pool and every write lands in dst — which makes this the
// hot-path form for per-round re-encoding.
func (c *Coder) EncodeVectorsInto(batches [][]field.Element, dst [][]field.Element) error {
	if len(batches) != len(c.nodes) {
		return fmt.Errorf("lagrange: got %d batches, coder has %d nodes", len(batches), len(c.nodes))
	}
	width := len(batches[0])
	for m, b := range batches {
		if len(b) != width {
			return fmt.Errorf("lagrange: batch %d has length %d, want %d", m, len(b), width)
		}
	}
	if len(dst) != len(c.points) {
		return fmt.Errorf("lagrange: %d destination rows for %d worker points", len(dst), len(c.points))
	}
	for i, row := range dst {
		if len(row) != width {
			return fmt.Errorf("lagrange: destination row %d has length %d, want %d", i, len(row), width)
		}
	}
	var start time.Duration
	if c.obs.Enabled() {
		start = c.obs.Now()
	}
	c.encodeInto(batches, dst)
	if c.obs.Enabled() {
		elapsed := c.obs.Now() - start
		c.cEncCalls.Inc()
		c.cEncWords.Add(int64(len(c.points) * width))
		c.hEncVectors.Observe(int64(elapsed))
		c.obs.EmitSpan("lagrange.encode", start, elapsed,
			obs.F("batches", len(batches)),
			obs.F("width", width),
			obs.F("workers_out", len(c.points)))
	}
	return nil
}
