// Package metrics implements the evaluation metrics of the paper's §VI:
// relative error (the accuracy gap between an examined model and the
// ideal plain-FL model trained without malicious vehicles), average
// absolute estimation error, and probability-density estimates of
// estimation results and errors (Figs. 5–8).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// RelativeError is the paper's headline metric: the absolute gap between
// an examined model's accuracy and the ideal (accurate-FL) model's
// accuracy on the same test set.
func RelativeError(examinedAccuracy, idealAccuracy float64) float64 {
	return math.Abs(examinedAccuracy - idealAccuracy)
}

// MeanAbsoluteError returns the average |estimate − truth| over paired
// slices (Fig. 6's metric). It panics on length mismatch: the pairing is a
// programmer invariant.
func MeanAbsoluteError(estimates, truth []float64) float64 {
	if len(estimates) != len(truth) {
		panic(fmt.Sprintf("metrics: length mismatch %d != %d", len(estimates), len(truth)))
	}
	if len(estimates) == 0 {
		return 0
	}
	var sum float64
	for i := range estimates {
		sum += math.Abs(estimates[i] - truth[i])
	}
	return sum / float64(len(estimates))
}

// Histogram is a fixed-bin density estimate over [Lo, Hi].
type Histogram struct {
	// Lo and Hi delimit the estimation range.
	Lo, Hi float64
	// Counts holds per-bin observation counts.
	Counts []int
	// N is the total number of observations, including clamped outliers.
	N int
}

// NewHistogram builds an empty histogram with the given number of bins.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("metrics: bins %d must be >= 1", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("metrics: invalid range [%g, %g]", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add records one observation; values outside [Lo, Hi] clamp to the edge
// bins so the density still integrates to one.
func (h *Histogram) Add(v float64) {
	bins := len(h.Counts)
	idx := int(float64(bins) * (v - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= bins {
		idx = bins - 1
	}
	h.Counts[idx]++
	h.N++
}

// AddAll records a slice of observations.
func (h *Histogram) AddAll(vs []float64) {
	for _, v := range vs {
		h.Add(v)
	}
}

// Density returns the normalised probability density per bin (integrating
// to 1 over [Lo, Hi]); all zeros when empty.
func (h *Histogram) Density() []float64 {
	out := make([]float64, len(h.Counts))
	if h.N == 0 {
		return out
	}
	binWidth := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		out[i] = float64(c) / (float64(h.N) * binWidth)
	}
	return out
}

// BinCenters returns the midpoint of every bin, for plotting.
func (h *Histogram) BinCenters() []float64 {
	out := make([]float64, len(h.Counts))
	binWidth := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i := range out {
		out[i] = h.Lo + binWidth*(float64(i)+0.5)
	}
	return out
}

// Overlap returns the overlapping area of two densities on the same
// support — the paper's Fig. 7 comparison ("largest overlapping area with
// the accurate FL model"). Both histograms must share range and bins.
func (h *Histogram) Overlap(o *Histogram) (float64, error) {
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.Counts) != len(o.Counts) {
		return 0, fmt.Errorf("metrics: histograms have different supports")
	}
	da, db := h.Density(), o.Density()
	binWidth := (h.Hi - h.Lo) / float64(len(h.Counts))
	var area float64
	for i := range da {
		area += math.Min(da[i], db[i]) * binWidth
	}
	return area, nil
}

// Trace is a per-round series (convergence curves of Figs. 2 and 4).
type Trace struct {
	// Name labels the series in figure output.
	Name string
	// Values holds one observation per round.
	Values []float64
}

// Append records the next round's value.
func (t *Trace) Append(v float64) { t.Values = append(t.Values, v) }

// TailMean averages the last k values (all values when k exceeds the
// length) — the steady-state summary used in the sweep figures.
func (t *Trace) TailMean(k int) float64 {
	n := len(t.Values)
	if n == 0 {
		return 0
	}
	if k > n {
		k = n
	}
	var sum float64
	for _, v := range t.Values[n-k:] {
		sum += v
	}
	return sum / float64(k)
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                     int
	Mean, Std             float64
	Min, Median, P90, Max float64
}

// Summarize computes descriptive statistics; zero value for empty input.
func Summarize(vs []float64) Summary {
	n := len(vs)
	if n == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, v := range vs {
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      n,
		Mean:   mean,
		Std:    math.Sqrt(variance),
		Min:    sorted[0],
		Median: sorted[n/2],
		P90:    sorted[n*9/10],
		Max:    sorted[n-1],
	}
}
