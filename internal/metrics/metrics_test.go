package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestRelativeError(t *testing.T) {
	if got := RelativeError(0.7, 0.9); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("RelativeError = %g", got)
	}
	if got := RelativeError(0.9, 0.7); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("RelativeError symmetric = %g", got)
	}
}

func TestMeanAbsoluteError(t *testing.T) {
	got := MeanAbsoluteError([]float64{1, 2, 3}, []float64{1, 1, 5})
	if math.Abs(got-1) > 1e-12 { // (0+1+2)/3
		t.Errorf("MAE = %g", got)
	}
	if got := MeanAbsoluteError(nil, nil); got != 0 {
		t.Errorf("empty MAE = %g", got)
	}
}

func TestMeanAbsoluteErrorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	MeanAbsoluteError([]float64{1}, []float64{1, 2})
}

func TestHistogramBasics(t *testing.T) {
	h, err := NewHistogram(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{0.1, 0.1, 0.6, 0.9, -5, 7})
	if h.N != 6 {
		t.Errorf("N = %d", h.N)
	}
	if h.Counts[0] != 3 { // 0.1, 0.1 and clamped -5
		t.Errorf("Counts[0] = %d", h.Counts[0])
	}
	if h.Counts[3] != 2 { // 0.9 and clamped 7
		t.Errorf("Counts[3] = %d", h.Counts[3])
	}
	// Density integrates to 1.
	var total float64
	for _, d := range h.Density() {
		total += d * 0.25
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("density integral = %g", total)
	}
	centers := h.BinCenters()
	if math.Abs(centers[1]-0.375) > 1e-12 {
		t.Errorf("BinCenters = %v", centers)
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewHistogram(1, 0, 4); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestHistogramEmptyDensity(t *testing.T) {
	h, _ := NewHistogram(0, 1, 3)
	for _, d := range h.Density() {
		if d != 0 {
			t.Error("empty histogram has nonzero density")
		}
	}
}

func TestOverlap(t *testing.T) {
	a, _ := NewHistogram(0, 1, 10)
	b, _ := NewHistogram(0, 1, 10)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		v := rng.Float64()
		a.Add(v)
		b.Add(v)
	}
	ov, err := a.Overlap(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ov-1) > 1e-12 {
		t.Errorf("identical overlap = %g, want 1", ov)
	}
	// Disjoint supports.
	c, _ := NewHistogram(0, 1, 10)
	d, _ := NewHistogram(0, 1, 10)
	for i := 0; i < 100; i++ {
		c.Add(0.05)
		d.Add(0.95)
	}
	ov, err = c.Overlap(d)
	if err != nil {
		t.Fatal(err)
	}
	if ov != 0 {
		t.Errorf("disjoint overlap = %g", ov)
	}
	bad, _ := NewHistogram(0, 2, 10)
	if _, err := a.Overlap(bad); err == nil {
		t.Error("mismatched supports accepted")
	}
}

func TestOverlapDiscriminates(t *testing.T) {
	// A shifted distribution must overlap less than a matching one — the
	// Fig. 7 comparison logic.
	rng := rand.New(rand.NewSource(2))
	ref, _ := NewHistogram(0, 1, 20)
	close_, _ := NewHistogram(0, 1, 20)
	far, _ := NewHistogram(0, 1, 20)
	for i := 0; i < 3000; i++ {
		ref.Add(0.4 + 0.1*rng.NormFloat64())
		close_.Add(0.42 + 0.1*rng.NormFloat64())
		far.Add(0.8 + 0.1*rng.NormFloat64())
	}
	ovClose, _ := ref.Overlap(close_)
	ovFar, _ := ref.Overlap(far)
	if ovClose <= ovFar {
		t.Errorf("overlap ordering wrong: close %g <= far %g", ovClose, ovFar)
	}
}

func TestTrace(t *testing.T) {
	tr := &Trace{Name: "acc"}
	if tr.TailMean(3) != 0 {
		t.Error("empty trace accessors nonzero")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		tr.Append(v)
	}
	if got := tr.TailMean(2); got != 3.5 {
		t.Errorf("TailMean(2) = %g", got)
	}
	if got := tr.TailMean(100); got != 2.5 {
		t.Errorf("TailMean(all) = %g", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 {
		t.Errorf("Summary = %+v", s)
	}
	if s.Median != 3 { // upper median by n/2 index
		t.Errorf("Median = %g", s.Median)
	}
	want := math.Sqrt(1.25)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("Std = %g, want %g", s.Std, want)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}
