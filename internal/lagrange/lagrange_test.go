package lagrange

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/poly"
)

func mustCoder(t *testing.T, m, v int, seed int64) *Coder {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nodes := field.RandDistinct(rng, m, nil)
	points := field.RandDistinct(rng, v, nodes)
	c, err := NewCoder(nodes, points)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCoderValidation(t *testing.T) {
	one, two := field.New(1), field.New(2)
	if _, err := NewCoder(nil, []field.Element{one}); err == nil {
		t.Error("empty nodes accepted")
	}
	if _, err := NewCoder([]field.Element{one, one}, nil); err == nil {
		t.Error("duplicate nodes accepted")
	}
	if _, err := NewCoder([]field.Element{one}, []field.Element{one}); err == nil {
		t.Error("overlapping node/point accepted")
	}
	if _, err := NewCoder([]field.Element{one}, []field.Element{two, two}); err == nil {
		t.Error("duplicate points accepted")
	}
}

func TestWeightsPartitionOfUnity(t *testing.T) {
	// Paper eq. 8: Σ_m p_m(z) = 1 for every z, because the basis
	// interpolates the constant-1 polynomial exactly.
	c := mustCoder(t, 8, 20, 1)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		z := field.Rand(rng)
		if got := field.Sum(c.WeightsAt(z)); got != field.One {
			t.Fatalf("Σ p_m(%v) = %v, want 1", z, got)
		}
	}
}

func TestWeightsIndicatorAtNodes(t *testing.T) {
	c := mustCoder(t, 6, 4, 3)
	for m, node := range c.nodes {
		w := c.WeightsAt(node)
		for n := range w {
			want := field.Zero
			if n == m {
				want = field.One
			}
			if w[n] != want {
				t.Fatalf("p_%d(ℓ_%d) = %v, want %v", n, m, w[n], want)
			}
		}
	}
}

func TestEncodeScalarsMatchesPolynomial(t *testing.T) {
	// X̃_i must equal H(ρ_i) where H interpolates (ℓ_m, X_m).
	c := mustCoder(t, 5, 12, 4)
	rng := rand.New(rand.NewSource(5))
	batches := make([]field.Element, c.NumBatches())
	for i := range batches {
		batches[i] = field.Rand(rng)
	}
	h := poly.InterpolateInto(make(poly.Poly, 0, len(batches)), make([]field.Element, len(batches)), c.nodes, batches)
	enc, err := c.EncodeScalars(batches)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range c.Points() {
		if want := h.Eval(p); enc[i] != want {
			t.Fatalf("X̃_%d = %v, want H(ρ_%d) = %v", i, enc[i], i, want)
		}
	}
}

func TestEncodeScalarsLengthMismatch(t *testing.T) {
	c := mustCoder(t, 4, 4, 6)
	if _, err := c.EncodeScalars(make([]field.Element, 3)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestEncodeVectors(t *testing.T) {
	c := mustCoder(t, 3, 7, 7)
	rng := rand.New(rand.NewSource(8))
	const width = 5
	batches := make([][]field.Element, c.NumBatches())
	for m := range batches {
		batches[m] = make([]field.Element, width)
		for j := range batches[m] {
			batches[m][j] = field.Rand(rng)
		}
	}
	enc, err := c.EncodeVectors(batches)
	if err != nil {
		t.Fatal(err)
	}
	// Component j of the vector encoding must equal the scalar encoding
	// of the j-th components.
	for j := 0; j < width; j++ {
		col := make([]field.Element, len(batches))
		for m := range batches {
			col[m] = batches[m][j]
		}
		want, err := c.EncodeScalars(col)
		if err != nil {
			t.Fatal(err)
		}
		for i := range enc {
			if enc[i][j] != want[i] {
				t.Fatalf("vector enc[%d][%d] = %v, want %v", i, j, enc[i][j], want[i])
			}
		}
	}
}

func TestEncodeVectorsRagged(t *testing.T) {
	c := mustCoder(t, 2, 2, 9)
	_, err := c.EncodeVectors([][]field.Element{
		{field.One, field.One},
		{field.One},
	})
	if err == nil {
		t.Error("ragged batches accepted")
	}
}

func TestEvalAtNodesRoundTrip(t *testing.T) {
	c := mustCoder(t, 6, 3, 10)
	rng := rand.New(rand.NewSource(11))
	batches := make([]field.Element, c.NumBatches())
	for i := range batches {
		batches[i] = field.Rand(rng)
	}
	got, err := c.EvalAtNodes(batches, c.nodes)
	if err != nil {
		t.Fatal(err)
	}
	for m := range batches {
		if got[m] != batches[m] {
			t.Fatalf("EvalAtNodes[%d] = %v, want %v", m, got[m], batches[m])
		}
	}
}

func TestPropertyEncodingLinear(t *testing.T) {
	// Encoding is linear in the data: encode(aX + bY) = a·enc(X) + b·enc(Y).
	c := mustCoder(t, 5, 9, 12)
	rng := rand.New(rand.NewSource(13))
	f := func(av, bv uint64) bool {
		a, b := field.New(av), field.New(bv)
		x := make([]field.Element, c.NumBatches())
		y := make([]field.Element, c.NumBatches())
		comb := make([]field.Element, c.NumBatches())
		for i := range x {
			x[i], y[i] = field.Rand(rng), field.Rand(rng)
			comb[i] = a.Mul(x[i]).Add(b.Mul(y[i]))
		}
		ex, _ := c.EncodeScalars(x)
		ey, _ := c.EncodeScalars(y)
		ec, _ := c.EncodeScalars(comb)
		for i := range ec {
			if ec[i] != a.Mul(ex[i]).Add(b.Mul(ey[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// --- Cached weight matrices ---

// TestWorkerWeightsCachedMatchRecurrence pins the construction-time weight
// cache against the on-demand recurrence, and checks the returned slice is
// a defensive copy of the cache.
func TestWorkerWeightsCachedMatchRecurrence(t *testing.T) {
	c := mustCoder(t, 8, 20, 94)
	for i := 0; i < c.NumWorkers(); i++ {
		want := c.WeightsAt(c.points[i])
		got := c.WorkerWeights(i)
		for m := range want {
			if got[m] != want[m] {
				t.Fatalf("worker %d weight %d: cached %v, recurrence %v", i, m, got[m], want[m])
			}
		}
		got[0] = got[0].Add(field.One) // must not corrupt the cache
	}
	scalars := make([]field.Element, 8)
	scalars[0] = field.One
	enc, err := c.EncodeScalars(scalars)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		if want := c.WeightsAt(c.points[i])[0]; enc[i] != want {
			t.Fatalf("worker %d: cache corrupted by WorkerWeights mutation (enc %v, want %v)", i, enc[i], want)
		}
	}
}

func TestEncodeVectorsIntoMatchesEncodeVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	c := mustCoder(t, 6, 14, 72)
	const width = 9
	batches := make([][]field.Element, 6)
	for i := range batches {
		batches[i] = make([]field.Element, width)
		for j := range batches[i] {
			batches[i][j] = field.Rand(rng)
		}
	}
	want, err := c.EncodeVectors(batches)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([][]field.Element, c.NumWorkers())
	for i := range dst {
		dst[i] = make([]field.Element, width)
	}
	// Two passes through the same destination: the second must overwrite
	// the first completely (Reduce writes, never accumulates across calls).
	for pass := 0; pass < 2; pass++ {
		if err := c.EncodeVectorsInto(batches, dst); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		for j := range want[i] {
			if dst[i][j] != want[i][j] {
				t.Fatalf("worker %d lane %d: Into %v, EncodeVectors %v", i, j, dst[i][j], want[i][j])
			}
		}
	}
	// Shape errors must be reported, not panic.
	if err := c.EncodeVectorsInto(batches, dst[:3]); err == nil {
		t.Fatal("short dst accepted")
	}
	dst[0] = dst[0][:width-1]
	if err := c.EncodeVectorsInto(batches, dst); err == nil {
		t.Fatal("ragged dst row accepted")
	}
}

// TestEncodeVectorsAllocs pins the steady-state allocation profile of the
// vector encode: the Into form reuses pooled accumulators and writes only
// caller memory (zero allocs), and the allocating form pays exactly the
// output slab (one flat array plus the row-header slice).
func TestEncodeVectorsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(73))
	c := mustCoder(t, 8, 20, 74)
	const width = 16
	batches := make([][]field.Element, 8)
	for i := range batches {
		batches[i] = make([]field.Element, width)
		for j := range batches[i] {
			batches[i][j] = field.Rand(rng)
		}
	}
	dst := make([][]field.Element, c.NumWorkers())
	for i := range dst {
		dst[i] = make([]field.Element, width)
	}
	if err := c.EncodeVectorsInto(batches, dst); err != nil { // warm the pool
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := c.EncodeVectorsInto(batches, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("EncodeVectorsInto allocates %.1f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.EncodeVectors(batches); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("EncodeVectors allocates %.1f times per call, want <= 2 (output slab only)", allocs)
	}
}

// BenchmarkEncodeVectorsCached measures the cached-matrix vector encode
// (paper scale M=16, V=100) — the per-call cost after the weight matrix
// and lazy-reduction kernels removed all per-slot weight recomputation.
func BenchmarkEncodeVectorsCached(b *testing.B) {
	rng := rand.New(rand.NewSource(95))
	const m, v, features = 16, 100, 64
	nodes := field.RandDistinct(rng, m, nil)
	points := field.RandDistinct(rng, v, nodes)
	c, err := NewCoder(nodes, points)
	if err != nil {
		b.Fatal(err)
	}
	batches := make([][]field.Element, m)
	for i := range batches {
		batches[i] = make([]field.Element, features)
		for j := range batches[i] {
			batches[i][j] = field.Rand(rng)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeVectors(batches); err != nil {
			b.Fatal(err)
		}
	}
}
