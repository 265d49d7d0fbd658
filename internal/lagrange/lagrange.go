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
	"repro/internal/parallel"
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
	workers  int               // pool width for EncodeVectors/EvalAtNodes; 1 = sequential

	// accPool recycles the per-chunk lazy accumulators of the vector
	// encode so a steady-state EncodeVectorsInto allocates nothing: each
	// pool worker takes one accumulator per chunk and returns it drained.
	// Widths vary per call, so getAcc discards pooled accumulators of the
	// wrong width (they are garbage-collected, not leaked).
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
		workers:  1,
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

// SetParallelism fixes the worker count EncodeVectors, EncodeScalars and
// EvalAtNodes fan out across (values < 1 select GOMAXPROCS). Results are
// bit-identical at every worker count; only wall-clock changes. The
// default is 1 (sequential).
func (c *Coder) SetParallelism(workers int) {
	c.workers = parallel.Workers(workers)
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

// NumBatches returns M, the number of interpolation nodes.
func (c *Coder) NumBatches() int { return len(c.nodes) }

// NumWorkers returns V, the number of worker evaluation points.
func (c *Coder) NumWorkers() int { return len(c.points) }

// Nodes returns a copy of the batch nodes ℓ_m.
func (c *Coder) Nodes() []field.Element {
	return append([]field.Element(nil), c.nodes...)
}

// Points returns a copy of the worker points ρ_i.
func (c *Coder) Points() []field.Element {
	return append([]field.Element(nil), c.points...)
}

// WeightsAt returns the Lagrange basis weights p_m(z) for an arbitrary
// evaluation position z. If z coincides with a node ℓ_m the weights are
// the indicator of that node (H(ℓ_m) = X_m).
func (c *Coder) WeightsAt(z field.Element) []field.Element {
	s := newWeightScratch(len(c.nodes))
	c.weightsInto(z, s)
	return s.w
}

// weightScratch holds the per-evaluation buffers of the basis-weight
// recurrence so hot loops (and each pool worker) allocate them once and
// reuse them across evaluation points.
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

// WorkerWeights returns a copy of the cached basis weights p_m(ρ_i) for
// worker i.
func (c *Coder) WorkerWeights(i int) []field.Element {
	return append([]field.Element(nil), c.weights[i]...)
}

// forEachChunk splits [0, n) into one contiguous chunk per pool worker
// and runs fn on the chunks concurrently. Chunk-private scratch (weight
// buffers, lazy accumulators) is allocated inside fn, once per chunk
// rather than once per index. Output slots are disjoint by index, so
// results are bit-identical to a sequential loop regardless of the
// worker count.
func (c *Coder) forEachChunk(n int, fn func(lo, hi int)) {
	workers := c.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	// fn never fails; ForEach is used for its pool and panic plumbing.
	_ = parallel.ForEach(workers, workers, func(ci int) error {
		lo, hi := ci*n/workers, (ci+1)*n/workers
		if lo < hi {
			fn(lo, hi)
		}
		return nil
	})
}

// EncodeScalars encodes scalar batches: given one field element per batch,
// it returns X̃_i = Σ_m p_m(ρ_i)·X_m for every worker.
func (c *Coder) EncodeScalars(batches []field.Element) ([]field.Element, error) {
	if len(batches) != len(c.nodes) {
		return nil, fmt.Errorf("lagrange: got %d batches, coder has %d nodes", len(batches), len(c.nodes))
	}
	out := make([]field.Element, len(c.points))
	c.forEachChunk(len(c.points), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = field.DotAcc(c.weights[i], batches)
		}
	})
	return out, nil
}

// encodeRange encodes worker points [lo, hi) into dst with one pooled
// accumulator — the chunk body of EncodeVectorsInto.
func (c *Coder) encodeRange(batches, dst [][]field.Element, lo, hi int) {
	width := 0
	if len(batches) > 0 {
		width = len(batches[0])
	}
	acc := c.getAcc(width)
	for i := lo; i < hi; i++ {
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
	// The sequential path calls the chunk worker directly: a closure
	// handed to forEachChunk escapes to the heap, which would be the one
	// allocation left on the zero-alloc hot path.
	if c.workers <= 1 || len(c.points) <= 1 {
		c.encodeRange(batches, dst, 0, len(c.points))
	} else {
		c.forEachChunk(len(c.points), func(lo, hi int) {
			c.encodeRange(batches, dst, lo, hi)
		})
	}
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

// EvalAtNodes evaluates the degree-(M-1) interpolation of the given batch
// values at arbitrary targets — used by the decoder to read off
// C(X_m) = C(H(ℓ_m)) from the reconstructed composition polynomial.
func (c *Coder) EvalAtNodes(batches []field.Element, targets []field.Element) ([]field.Element, error) {
	if len(batches) != len(c.nodes) {
		return nil, fmt.Errorf("lagrange: got %d batches, coder has %d nodes", len(batches), len(c.nodes))
	}
	out := make([]field.Element, len(targets))
	c.forEachChunk(len(targets), func(lo, hi int) {
		// Targets are arbitrary (not the fixed worker points), so their
		// weights cannot come from the cache; the recurrence runs with
		// chunk-private scratch as before.
		s := newWeightScratch(len(c.nodes))
		for t := lo; t < hi; t++ {
			c.weightsInto(targets[t], s)
			out[t] = field.DotAcc(s.w, batches)
		}
	})
	return out, nil
}
