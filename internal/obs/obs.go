// Package obs is the repository's observability layer: typed runtime
// metrics (Registry), structured JSONL event tracing (Tracer), and
// runtime/GC sampling (RuntimeSampler) behind one nil-safe handle (Obs).
// Every counter and histogram names its trace twin where it is
// registered (Twin), so the registry's snapshot says how a trace
// re-derives each value.
//
// Design constraints, in order:
//
//   - Zero cost when disabled. Every instrumented hot path holds a nil
//     *Obs (or nil *Counter/*Histogram) by default; all methods are
//     nil-receiver safe no-ops, so "observability off" costs one pointer
//     comparison and no allocation. The root alloc_test.go pins the
//     untraced allocation count; go run ./benchmark reports the traced
//     cost as obs.trace_overhead_frac.
//   - Deterministic traces under test. Timestamps come from an injected
//     monotonic Clock, never from the wall clock directly; tests drive a
//     ManualClock and obtain byte-identical traces. NewRealClock is the
//     ONLY sanctioned wall-clock read in the repository outside tests —
//     cmd/lcofl-lint's wallclock analyzer enforces that.
//   - Race-clean. Counters, gauges and histograms are lock-free atomics;
//     the tracer serialises emission behind one mutex, so instrumented
//     code may emit from worker-pool goroutines freely. Event ORDER in a
//     trace is only deterministic where emission is sequential
//     (GOMAXPROCS=1, or events emitted outside parallel fan-outs).
package obs

import (
	"sync/atomic"
	"time"
)

// Clock supplies monotonic timestamps as durations since an arbitrary
// epoch fixed at construction. Injecting the clock keeps traces
// deterministic under test (ManualClock) while production uses the
// monotonic wall clock (NewRealClock).
type Clock interface {
	// Now returns the time elapsed since the clock's epoch.
	Now() time.Duration
}

// realClock measures against a start instant captured at construction;
// time.Since reads the monotonic clock, so Now never jumps backwards.
type realClock struct {
	start time.Time
}

// NewRealClock returns a Clock whose epoch is the moment of the call.
// This constructor is the repository's single sanctioned wall-clock read
// outside tests (see cmd/lcofl-lint, wallclock analyzer).
func NewRealClock() Clock {
	return &realClock{start: time.Now()}
}

// Now implements Clock.
func (c *realClock) Now() time.Duration { return time.Since(c.start) }

// ManualClock is a deterministic Clock for tests: time moves only when
// the test advances it. The zero value starts at 0 and is ready to use;
// all methods are safe for concurrent use.
type ManualClock struct {
	ns atomic.Int64
}

// Now implements Clock.
func (c *ManualClock) Now() time.Duration { return time.Duration(c.ns.Load()) }

// Advance moves the clock forward by d (negative d is ignored).
func (c *ManualClock) Advance(d time.Duration) {
	if d > 0 {
		c.ns.Add(int64(d))
	}
}

// Set jumps the clock to an absolute offset from its epoch.
func (c *ManualClock) Set(d time.Duration) { c.ns.Store(int64(d)) }

// Field is one key/value pair attached to a trace event.
type Field struct {
	Key string
	Val any
}

// F builds a Field — shorthand for event emission call sites.
func F(key string, val any) Field { return Field{Key: key, Val: val} }

// Obs bundles a metrics registry, an event tracer and a clock into the
// single handle instrumented code carries. Any part may be nil; the nil
// *Obs disables everything. Construction wires the pieces; the struct is
// immutable afterwards, so reads need no synchronisation.
type Obs struct {
	reg   *Registry
	tr    *Tracer
	clock Clock
}

// New bundles the given pieces. Any argument may be nil; a nil clock
// stamps every event at 0 (fine for metrics-only use).
func New(reg *Registry, tr *Tracer, clock Clock) *Obs {
	return &Obs{reg: reg, tr: tr, clock: clock}
}

// Enabled reports whether any instrumentation is attached.
func (o *Obs) Enabled() bool { return o != nil }

// TraceEnabled reports whether events will actually be recorded — hot
// paths check it before building per-iteration field lists.
func (o *Obs) TraceEnabled() bool { return o != nil && o.tr != nil }

// Registry returns the metrics registry (nil when disabled).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the event tracer (nil when disabled).
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

// Now returns the clock reading, or 0 without a clock.
func (o *Obs) Now() time.Duration {
	if o == nil || o.clock == nil {
		return 0
	}
	return o.clock.Now()
}

// Counter resolves a named counter and declares its trace twin (nil-safe;
// nil when disabled). Call sites resolve once and reuse the handle.
func (o *Obs) Counter(name string, twin Twin) *Counter {
	return o.Registry().Counter(name, twin)
}

// Gauge resolves a named gauge (nil-safe; nil when disabled).
func (o *Obs) Gauge(name string) *Gauge { return o.Registry().Gauge(name) }

// Histogram resolves a named histogram and declares its trace twin
// (nil-safe; nil when disabled).
func (o *Obs) Histogram(name string, bounds []int64, twin Twin) *Histogram {
	return o.Registry().Histogram(name, bounds, twin)
}

// Emit records one point event stamped with the current clock reading.
func (o *Obs) Emit(event string, fields ...Field) {
	if o == nil || o.tr == nil {
		return
	}
	o.tr.emit(o.Now(), event, 0, fields)
}

// EmitSpan records one already-timed operation: an event stamped at
// start with the given duration. Use it when the caller measured the
// interval itself (e.g. it needed the elapsed time for a histogram
// anyway); otherwise prefer Start/End.
func (o *Obs) EmitSpan(event string, start, dur time.Duration, fields ...Field) {
	if o == nil || o.tr == nil {
		return
	}
	o.tr.emit(start, event, dur, fields)
}

// Span is an in-flight timed operation. The zero value (from a disabled
// Obs) is a no-op. End emits one event named after the span carrying the
// start timestamp and dur_ns.
type Span struct {
	o      *Obs
	event  string
	start  time.Duration
	fields []Field
}

// Start opens a span. With tracing disabled it returns the no-op zero
// Span without reading the clock.
func (o *Obs) Start(event string, fields ...Field) Span {
	if o == nil || o.tr == nil {
		return Span{}
	}
	return Span{o: o, event: event, start: o.Now(), fields: fields}
}

// End closes the span, emitting its event with dur_ns = now − start and
// the union of the Start and End fields.
func (s Span) End(extra ...Field) {
	if s.o == nil {
		return
	}
	fields := s.fields
	if len(extra) > 0 {
		fields = append(append([]Field(nil), fields...), extra...)
	}
	s.o.tr.emit(s.start, s.event, s.o.Now()-s.start, fields)
}
