package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileAndSampleRule(t *testing.T) {
	xs := make([]float64, 101) // 0..100, shuffled order must not matter
	for i := range xs {
		xs[i] = float64((i * 37) % 101)
	}
	for _, tc := range []struct{ p, want float64 }{{0, 0}, {50, 50}, {95, 95}, {99, 99}, {100, 100}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2.5 {
		t.Errorf("even-count median = %g, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
	// A percentile is reported only with >= 10 samples beyond it.
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{{199, 95, false}, {200, 95, true}, {999, 99, false}, {1000, 99, true}, {20, 50, true}, {19, 50, false}} {
		if got := percentileOK(tc.n, tc.p); got != tc.want {
			t.Errorf("percentileOK(%d, %g) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

// TestSliceStats cuts a hand-built session into slices of two rounds: six
// rounds and a seventh that fills no slice.
func TestSliceStats(t *testing.T) {
	ms := time.Millisecond
	starts := []time.Duration{0, 1 * ms, 4 * ms, 8 * ms, 12 * ms, 22 * ms, 24 * ms, 30 * ms}
	cpu := []time.Duration{100 * ms, 108 * ms, 112 * ms, 136 * ms} // at rounds 0, 2, 4, 6
	got := sliceStats(starts, cpu, 2)
	want := []sliceStat{
		{rate: 500, p50ms: 2, cpuMs: 4},         // rounds of 1 and 3 ms
		{rate: 250, p50ms: 4, cpuMs: 2},         // 4 and 4 ms
		{rate: 1000.0 / 6, p50ms: 6, cpuMs: 12}, // 10 and 2 ms
	}
	if len(got) != len(want) {
		t.Fatalf("%d slices, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].rate-want[i].rate) > 1e-9 || got[i].p50ms != want[i].p50ms || got[i].cpuMs != want[i].cpuMs {
			t.Errorf("slice %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSummarize pins which statistics are medians over sessions and
// which are the quiet-side quartile over the slices of all sessions.
func TestSummarize(t *testing.T) {
	rep := func(rounds int, setup time.Duration, slices ...sliceStat) *sessionResult {
		return &sessionResult{
			rounds: rounds, latency: make([]time.Duration, rounds), slices: slices,
			mallocs: uint64(100 * rounds), allocBytes: uint64(2048 * rounds),
			wire: int64(10 * rounds), setup: setup,
		}
	}
	ms := time.Millisecond
	s := summarize([]*sessionResult{
		rep(4, 8*ms, sliceStat{500, 2, 4}, sliceStat{400, 2.5, 5}),
		rep(4, 1*ms, sliceStat{100, 10, 20}, sliceStat{300, 3, 6}), // one slice met a disturbance
		rep(4, 2*ms, sliceStat{200, 5, 10}),
	})
	if s.reps != 3 || s.slices != 5 || len(s.pooled) != 12 {
		t.Fatalf("reps=%d slices=%d pooled=%d, want 3, 5 and 12", s.reps, s.slices, len(s.pooled))
	}
	want := map[string]float64{
		"rounds_per_s":         400, // upper quartile of 100 200 300 400 500
		"round_p50_ms":         2.5, // lower quartile of 2 2.5 3 5 10
		"cpu_ms_per_round":     5,   // lower quartile of 4 5 6 10 20
		"allocs_per_round":     100,
		"alloc_kb_per_round":   2,
		"wire_bytes_per_round": 10,
		"setup_s":              0.002, // median of 8, 1, 2 ms
	}
	for name, w := range want {
		if got := s.values[name]; math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, got, w)
		}
	}
}

func TestBoundIsDirectionAware(t *testing.T) {
	// Higher is better: dropping from 100 to 90 is a 10 % worsening,
	// rising to 110 is an improvement.
	if got := worsening(100, 90, true); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-is-better worsening = %g, want 0.10", got)
	}
	if got := worsening(100, 110, true); got >= 0 {
		t.Errorf("higher-is-better improvement reported as worsening %g", got)
	}
	// Lower is better: the same moves swap meaning.
	if got := worsening(100, 110, false); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better worsening = %g, want 0.10", got)
	}
	if !withinBound(100, 114, 0.15, false) || withinBound(100, 116, 0.15, false) {
		t.Error("lower-is-better bound 0.15 must admit 114 and refuse 116")
	}
	if !withinBound(100, 86, 0.15, true) || withinBound(100, 84, 0.15, true) {
		t.Error("higher-is-better bound 0.15 must admit 86 and refuse 84")
	}
	if !withinBound(100, 50, 0.15, false) {
		t.Error("an improvement is always within bound")
	}
	if worsening(0, 0, false) != 0 || !math.IsInf(worsening(0, 1, false), 1) {
		t.Error("a zero base must compare as equal or as unbounded worsening")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "round", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},   // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0},  // runs past the parent: clipped
		{Name: "a.1", Start: 12, End: 18, Parent: 1}, // grandchild: only a's business
		{Name: "leaf", Start: 60, End: 70, Parent: -1},
	}
	want := []time.Duration{50, 14, 30, 30, 6, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}
