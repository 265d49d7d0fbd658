package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; NaN for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported.
const minBeyond = 10

// percentileOK reports whether n samples support the p-th percentile:
// at least minBeyond of them must lie beyond it.
func percentileOK(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

// worsening is how much worse got is than base as a share of base,
// respecting the metric's direction; negative means got is better.
func worsening(base, got float64, higherIsBetter bool) float64 {
	if base == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if higherIsBetter {
		return (base - got) / math.Abs(base)
	}
	return (got - base) / math.Abs(base)
}

// withinBound reports whether got is no worse than base by more than
// bound, a share of base.
func withinBound(base, got, bound float64, higherIsBetter bool) bool {
	return worsening(base, got, higherIsBetter) <= bound
}

// span is one timed interval of the traced pass. Parent indexes the
// slice the span lives in (-1 for a root); all spans of a round share
// the round number.
type span struct {
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Parent  int           `json:"parent"`
	Round   int           `json:"round"`
	Vehicle int           `json:"vehicle"`
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once, and only inside the parent's interval).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}
