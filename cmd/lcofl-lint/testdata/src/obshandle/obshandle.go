// Package obshandle is the fixture for the obshandle analyzer: registry
// lookups (Counter/Gauge/Histogram) belong in constructors — inside a
// loop, inside a literal defined in a loop, or chained straight into a
// method call they re-pay the mutex-guarded map access per event.
package obshandle

import (
	"sync"

	"repro/internal/obs"
)

type worker struct {
	o    *obs.Obs
	cOps *obs.Counter
}

// Lookups at construction are the sanctioned pattern.
func newWorker(o *obs.Obs) *worker {
	return &worker{o: o, cOps: o.Counter("worker.ops", obs.CountOf("worker.ops"))}
}

func (w *worker) goodStep() {
	w.cOps.Inc()
}

func (w *worker) badLoop(n int) {
	for i := 0; i < n; i++ {
		c := w.o.Counter("worker.loop_ops", obs.CountOf("worker.loop_ops")) // want "lookup inside a loop"
		c.Inc()
	}
}

func (w *worker) badChained() {
	w.o.Counter("worker.chained", obs.CountOf("worker.chained")).Inc() // want "chained into a method call"
}

func (w *worker) badGaugeInRange(xs []int) {
	for _, x := range xs {
		g := w.o.Gauge("worker.x") // want "lookup inside a loop"
		g.Set(int64(x))
	}
}

func (w *worker) badLitInLoop(items []int) {
	for range items {
		f := func() {
			c := w.o.Counter("worker.lit", obs.CountOf("worker.lit")) // want "function literal defined in a loop"
			c.Inc()
		}
		f()
	}
}

// Hoisting the lookup out of the loop is the fix.
func (w *worker) hoisted(xs []int) {
	c := w.o.Counter("worker.hoisted", obs.CountOf("worker.hoisted"))
	for range xs {
		c.Inc()
	}
}

// A lookup stored outside any loop is fine even mid-function.
func (w *worker) storedLate() {
	h := w.o.Histogram("worker.lat", obs.LatencyBuckets(), obs.SpanOf("worker.lat"))
	h.Observe(1)
}

// Pooled scratch (the zero-alloc decode path): scratch structs carry
// buffers, never registry handles — the owning object resolves its
// handles once at construction and the hot loop only ever touches
// those, so pool Get/Put cycles stay lookup-free.
type scratch struct{ buf []int }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (w *worker) pooledSteps(n int) {
	s := scratchPool.Get().(*scratch)
	s.buf = s.buf[:0]
	for i := 0; i < n; i++ {
		s.buf = append(s.buf, i)
		w.cOps.Inc() // construction-resolved handle: clean in the loop
	}
	scratchPool.Put(s)
}
