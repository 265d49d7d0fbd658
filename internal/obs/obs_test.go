package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety drives every instrumentation entry point through nil
// receivers — the disabled configuration every hot path runs with by
// default must be a total no-op, not a panic.
func TestNilSafety(t *testing.T) {
	var o *Obs
	if o.Enabled() || o.TraceEnabled() {
		t.Fatal("nil Obs reports enabled")
	}
	if o.Now() != 0 {
		t.Fatal("nil Obs clock should read 0")
	}
	o.Emit("ev", F("k", 1))
	span := o.Start("span")
	span.End(F("x", 2))
	o.Counter("c", CountOf("e")).Inc()
	o.Counter("c", CountOf("e")).Add(5)
	if o.Counter("c", CountOf("e")).Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	o.Gauge("g").Set(3)
	o.Histogram("h", LatencyBuckets(), SpanOf("e")).Observe(10)
	if got := o.Histogram("h", nil, SpanOf("e")).Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %v", got)
	}

	var r *Registry
	if r.Counter("x", CountOf("e")) != nil || r.Gauge("x") != nil || r.Histogram("x", nil, SpanOf("e")) != nil {
		t.Fatal("nil registry returned live metrics")
	}
	if snap := r.Snapshot(); snap.Counters != nil {
		t.Fatal("nil registry snapshot non-empty")
	}

	var tr *Tracer
	tr.Emit("ev")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	var s *RuntimeSampler
	s.Sample()
	s.Stop()
}

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits", CountOf("hit"))
	g := r.Gauge("level")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if r.Counter("hits", CountOf("hit")) != c {
		t.Fatal("second resolve returned a different counter")
	}
}

// Quantile reads the q-quantile the registry snapshot reports as
// P50/P95/P99; 0 on a nil histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.snapshot().quantile(q)
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for v := int64(1); v <= 100; v++ {
		h.Observe(v) // 10 in (0,10], 90 in (10,100]
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	// rank(0.5)=50 → 40th of 90 obs in (10,100]: 10 + (40/90)*90 = 50.
	if got := h.Quantile(0.5); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("p0 = %v, want 0", got)
	}
	// Overflow clamps to the last bound.
	h.Observe(5000)
	if got := h.Quantile(1); got != 1000 {
		t.Fatalf("p100 with overflow = %v, want 1000", got)
	}
	// An empty histogram answers 0.
	if got := NewHistogram([]int64{1}).Quantile(0.9); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
}

func TestExpBucketsStrictlyIncreasing(t *testing.T) {
	for _, b := range [][]int64{expBuckets(1, 1.01, 40), LatencyBuckets()} {
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("bounds not increasing at %d: %v", i, b)
			}
		}
	}
}

// TestTracerDeterministic proves the determinism contract: the same
// emission sequence against a ManualClock yields byte-identical JSONL.
func TestTracerDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		clk := &ManualClock{}
		o := New(nil, NewTracer(&buf, clk), clk)
		o.Emit("round.start", F("round", 1))
		clk.Advance(5 * time.Millisecond)
		span := o.Start("round", F("round", 1))
		clk.Advance(20 * time.Millisecond)
		span.End(F("failures", 0), F("zebra", "z"), F("alpha", "a"))
		o.Emit("round.end", F("round", 1))
		if err := o.Tracer().Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("traces differ:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), a)
	}
	var span map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &span); err != nil {
		t.Fatal(err)
	}
	if span["ev"] != "round" || span["t_ns"] != float64(5*time.Millisecond) || span["dur_ns"] != float64(20*time.Millisecond) {
		t.Fatalf("span record wrong: %v", span)
	}
	if span["failures"] != float64(0) || span["alpha"] != "a" {
		t.Fatalf("span fields wrong: %v", span)
	}
}

// TestTracerReservedKeys checks user fields cannot clobber the record
// envelope.
func TestTracerReservedKeys(t *testing.T) {
	var buf bytes.Buffer
	clk := &ManualClock{}
	clk.Set(7)
	tr := NewTracer(&buf, clk)
	tr.Emit("x", F("ev", "spoof"), F("t_ns", 99))
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["ev"] != "x" || rec["t_ns"] != float64(7) {
		t.Fatalf("reserved keys clobbered: %v", rec)
	}
}

func TestTracerConcurrentEmitRaceFree(t *testing.T) {
	var buf bytes.Buffer
	clk := &ManualClock{}
	tr := NewTracer(&buf, clk)
	o := New(nil, tr, clk)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				o.Emit("tick", F("worker", w), F("i", i))
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1600 {
		t.Fatalf("got %d events, want 1600", len(lines))
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v", i+1, err)
		}
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count", SumOf("a", "n")).Add(3)
	r.Gauge("b.gauge").Set(-2)
	h := r.Histogram("c.hist", []int64{10, 100}, NoTwin("test"))
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["a.count"] != 3 || snap.Gauges["b.gauge"] != -2 {
		t.Fatalf("snapshot wrong: %+v", snap)
	}
	hs := snap.Histograms["c.hist"]
	if hs.Count != 3 || hs.Sum != 555 || len(hs.Buckets) != 3 {
		t.Fatalf("hist snapshot wrong: %+v", hs)
	}
	if hs.Buckets[2].Le != -1 || hs.Buckets[2].N != 1 {
		t.Fatalf("overflow bucket wrong: %+v", hs.Buckets)
	}
	// The declarations travel beside the values; gauges declare nothing.
	wantTwins := map[string]Twin{"a.count": {Event: "a", Field: "n"}, "c.hist": {NoTwin: "test"}}
	if len(snap.Twins) != len(wantTwins) || snap.Twins["a.count"] != wantTwins["a.count"] ||
		snap.Twins["c.hist"] != wantTwins["c.hist"] {
		t.Fatalf("twins = %+v, want %+v", snap.Twins, wantTwins)
	}
	want := []string{"a.count", "b.gauge", "c.hist"}
	got := r.Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestManualClock(t *testing.T) {
	var c ManualClock
	if c.Now() != 0 {
		t.Fatal("zero clock not at 0")
	}
	c.Advance(time.Second)
	c.Advance(-time.Hour) // ignored
	if c.Now() != time.Second {
		t.Fatalf("clock = %v", c.Now())
	}
	c.Set(3 * time.Second)
	if c.Now() != 3*time.Second {
		t.Fatalf("clock = %v", c.Now())
	}
}

func TestRealClockMonotone(t *testing.T) {
	clk := NewRealClock()
	a := clk.Now()
	b := clk.Now()
	if b < a {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
}

func TestRuntimeSampler(t *testing.T) {
	r := NewRegistry()
	s := NewRuntimeSampler(r)
	s.Sample()
	if r.Gauge("runtime.goroutines").Value() < 1 {
		t.Fatal("goroutine gauge not set")
	}
	if r.Gauge("runtime.heap_alloc_bytes").Value() <= 0 {
		t.Fatal("heap gauge not set")
	}
	// Background loop: start, let it breathe, stop — must not leak or race.
	s.Start(time.Millisecond)
	s.Start(time.Millisecond) // double-start is a no-op
	time.Sleep(5 * time.Millisecond)
	s.Stop()
	s.Stop() // double-stop is safe (one extra Sample)
}

// Count returns the number of observations (0 for the nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Names returns the sorted metric names of every kind — a convenience for
// tests and report tooling.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestTwinDeclarationRules pins the one registration rule: every counter
// and histogram names either a twin event or a NoTwin reason, and a
// second registration of the same name may not contradict the first.
func TestTwinDeclarationRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  func(r *Registry)
	}{
		{"zero twin", func(r *Registry) { r.Counter("c", Twin{}) }},
		{"field without event", func(r *Registry) { r.Counter("c", Twin{Field: "bytes"}) }},
		{"event and reason", func(r *Registry) { r.Histogram("h", nil, Twin{Event: "e", NoTwin: "x"}) }},
		{"contradiction", func(r *Registry) {
			r.Counter("c", CountOf("e"))
			r.Counter("c", SumOf("e", "bytes"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("registration accepted")
				}
			}()
			tc.reg(NewRegistry())
		})
	}
}
