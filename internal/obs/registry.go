package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The nil *Counter
// is a no-op, so disabled instrumentation costs one nil check.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable instantaneous value. The nil *Gauge is
// a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the last stored value (0 for the nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bin distribution of int64 observations (latencies
// in nanoseconds, sizes in bytes). Observations are lock-free atomic
// increments; bounds are inclusive upper bin edges with an implicit
// overflow bin above the last bound. The nil *Histogram is a no-op.
type Histogram struct {
	bounds []int64
	bins   []atomic.Int64 // len(bounds)+1, last is overflow
	count  atomic.Int64
	sum    atomic.Int64
}

// NewHistogram builds a free-standing histogram (registries build theirs
// through Registry.Histogram). bounds must be strictly increasing.
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d", i))
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		bins:   make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.bins[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// histData is a consistent-enough copy of the histogram counts. (Each bin
// load is atomic; a concurrent Observe may straddle the copy, which for
// monitoring-grade quantiles is acceptable.)
type histData struct {
	bounds []int64
	bins   []int64
	count  int64
	sum    int64
}

func (h *Histogram) snapshot() histData {
	d := histData{bounds: h.bounds, bins: make([]int64, len(h.bins)), count: h.count.Load(), sum: h.sum.Load()}
	for i := range h.bins {
		d.bins[i] = h.bins[i].Load()
	}
	return d
}

// quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// inside the containing bin; values in the overflow bin clamp to the last
// bound. It returns 0 with no observations.
func (d histData) quantile(q float64) float64 {
	if d.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(d.count)
	var cum int64
	for i, n := range d.bins {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(d.bounds) { // overflow bin clamps
				return float64(d.bounds[len(d.bounds)-1])
			}
			lower := int64(0)
			if i > 0 {
				lower = d.bounds[i-1]
			}
			upper := d.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return float64(lower) + frac*float64(upper-lower)
		}
		cum += n
	}
	return float64(d.bounds[len(d.bounds)-1])
}

// expBuckets returns n strictly increasing bounds starting at start and
// growing by factor.
func expBuckets(start int64, factor float64, n int) []int64 {
	out := make([]int64, 0, n)
	v := float64(start)
	last := int64(0)
	for len(out) < n {
		b := int64(v)
		if b <= last {
			b = last + 1
		}
		out = append(out, b)
		last = b
		v *= factor
	}
	return out
}

// LatencyBuckets spans 1µs to ~17s doubling per bin — the default for
// duration histograms (nanosecond observations).
func LatencyBuckets() []int64 { return expBuckets(1_000, 2, 25) }

// Twin is a metric's declared trace twin: the event whose occurrences it
// counts, or the numeric field of that event it sums (dur_ns for a
// span's histogram). A metric that no event re-derives declares NoTwin
// with the reason instead. Every Counter and Histogram registration
// names its twin, and the registry's snapshot carries the declarations
// beside the values, so `tracereport -check-metrics` re-derives each
// twinned metric from a trace without a table of its own.
type Twin struct {
	Event string `json:"event,omitempty"`
	// Field is the numeric event field summed; empty counts events.
	Field string `json:"field,omitempty"`
	// NoTwin is why no event re-derives the metric (Event is then empty).
	NoTwin string `json:"no_twin,omitempty"`
}

// CountOf declares a metric that counts event's occurrences.
func CountOf(event string) Twin { return Twin{Event: event} }

// SumOf declares a metric that sums event's numeric field.
func SumOf(event, field string) Twin { return Twin{Event: event, Field: field} }

// SpanOf declares a duration histogram whose sum is the Σ dur_ns of the
// span event that times the same interval.
func SpanOf(event string) Twin { return SumOf(event, "dur_ns") }

// NoTwin declares a metric that no trace event re-derives, for reason.
func NoTwin(reason string) Twin { return Twin{NoTwin: reason} }

// Registry is a concurrent name→metric map. Metric handles are created on
// first use and stable afterwards, so hot paths resolve once and then
// update lock-free. The nil *Registry returns nil (no-op) handles.
type Registry struct {
	mu       sync.Mutex            // guards the four maps
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
	twins    map[string]Twin       // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		twins:    map[string]Twin{},
	}
}

// declare records name's twin. A registration without a declaration, or
// one that contradicts an earlier registration of the same name, is a
// programming error.
func (r *Registry) declare(name string, twin Twin) {
	if (twin.Event == "") == (twin.NoTwin == "") {
		panic(fmt.Sprintf("obs: %s must declare either a twin event or a NoTwin reason", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.twins[name]; ok && prev != twin {
		panic(fmt.Sprintf("obs: %s re-registered with twin %+v, declared %+v", name, twin, prev))
	}
	r.twins[name] = twin
}

// Counter returns the named counter, creating it on first use, and
// declares its trace twin.
func (r *Registry) Counter(name string, twin Twin) *Counter {
	if r == nil {
		return nil
	}
	r.declare(name, twin)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls reuse the existing bins and ignore
// bounds), and declares its trace twin.
func (r *Registry) Histogram(name string, bounds []int64, twin Twin) *Histogram {
	if r == nil {
		return nil
	}
	r.declare(name, twin)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Bucket is one non-empty histogram bin in a snapshot. Le is the
// inclusive upper bound (-1 for the overflow bin).
type Bucket struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// HistSnapshot is one histogram's state with precomputed percentiles.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time JSON-serialisable copy of a registry.
// Twins holds every counter's and histogram's declared trace twin.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	Twins      map[string]Twin         `json:"twins,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(r.hists))
		for name, h := range r.hists {
			d := h.snapshot()
			hs := HistSnapshot{
				Count: d.count,
				Sum:   d.sum,
				P50:   d.quantile(0.50),
				P95:   d.quantile(0.95),
				P99:   d.quantile(0.99),
			}
			for i, n := range d.bins {
				if n == 0 {
					continue
				}
				le := int64(-1)
				if i < len(d.bounds) {
					le = d.bounds[i]
				}
				hs.Buckets = append(hs.Buckets, Bucket{Le: le, N: n})
			}
			s.Histograms[name] = hs
		}
	}
	if len(r.twins) > 0 {
		s.Twins = maps.Clone(r.twins)
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON (map keys sorted by
// encoding/json, so output is deterministic for fixed metric values).
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal snapshot: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
