package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Tracer emits structured events as JSON Lines: one object per line with
// a monotonic timestamp ("t_ns"), the event name ("ev"), an optional
// duration ("dur_ns", spans only) and the event's fields flattened in.
// encoding/json marshals map keys in sorted order, so a trace produced
// with a ManualClock and sequential emission is byte-identical across
// runs — the determinism contract obs tests and cmd/tracereport rely on.
//
// Emission is serialised behind one mutex, so any goroutine may emit; the
// nil *Tracer drops everything. Events from concurrent worker-pool tasks
// are recorded race-free but in scheduling order, so fully deterministic
// trace FILES additionally require GOMAXPROCS=1 (see the package comment).
type Tracer struct {
	mu    sync.Mutex    // guards w and err
	w     *bufio.Writer // guarded by mu
	clock Clock
	err   error // guarded by mu
}

// NewTracer wraps w (buffered) with timestamps from clock. A nil clock
// stamps every event at 0.
func NewTracer(w io.Writer, clock Clock) *Tracer {
	return &Tracer{w: bufio.NewWriter(w), clock: clock}
}

// Emit records one point event stamped with the tracer's own clock —
// for callers holding a bare *Tracer rather than an *Obs.
func (t *Tracer) Emit(event string, fields ...Field) {
	if t == nil {
		return
	}
	var at time.Duration
	if t.clock != nil {
		at = t.clock.Now()
	}
	t.emit(at, event, 0, fields)
}

// emit serialises and writes one record. dur 0 omits dur_ns (point
// events); spans pass their measured duration.
func (t *Tracer) emit(at time.Duration, event string, dur time.Duration, fields []Field) {
	if t == nil {
		return
	}
	rec := make(map[string]any, len(fields)+3)
	rec["t_ns"] = int64(at)
	rec["ev"] = event
	if dur != 0 {
		rec["dur_ns"] = int64(dur)
	}
	for _, f := range fields {
		if f.Key == "t_ns" || f.Key == "ev" || f.Key == "dur_ns" {
			continue // reserved keys win
		}
		rec[f.Key] = f.Val
	}
	data, err := json.Marshal(rec)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		if t.err == nil {
			t.err = fmt.Errorf("obs: marshal event %q: %w", event, err)
		}
		return
	}
	if t.err != nil {
		return // sink already failed; drop quietly, surfaced by Flush/Err
	}
	if _, err := t.w.Write(data); err != nil {
		t.err = err
		return
	}
	if err := t.w.WriteByte('\n'); err != nil {
		t.err = err
	}
}

// Flush drains the buffer to the sink and returns the first emission or
// write error encountered so far.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}
