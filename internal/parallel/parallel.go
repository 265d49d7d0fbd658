// Package parallel is the repository's bounded worker-pool execution
// engine. Every concurrent hot path — the scheme's per-slot encode and
// decode, the per-vehicle training fan-out, the multi-seed experiment
// sweep — runs through the primitives
// here rather than bare `go` statements, so errors and panics are never
// silently lost (cmd/lcofl-lint's rawgo analyzer enforces this).
//
// Determinism contract: ForEach assigns work by index into
// preallocated result slots, so the output of a parallel run is
// bit-identical to the sequential run at any worker count, provided the
// per-index function depends only on its index (no shared mutable state,
// no shared RNG stream). Callers that need randomness derive one
// independent stream per index with SplitSeeds and field.SeededSource /
// math/rand — never by sharing a generator across indices. When several
// indices fail, the error for the LOWEST index is returned, matching what
// a sequential loop would have surfaced first.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool-usage counters, maintained O(1) per pool entry (never per task in
// the claiming loop) so they cost nothing on the hot paths. Snapshot
// exposes them for the observability layer (internal/obs consumers
// publish them as gauges at report time).
var stats struct {
	poolRuns       atomic.Int64 // ForEach entries that spawned goroutines
	seqRuns        atomic.Int64 // ForEach entries that ran inline
	tasks          atomic.Int64 // total indices scheduled across all entries
	workersSpawned atomic.Int64 // goroutines started by ForEach (excl. caller)
	groupTasks     atomic.Int64 // goroutines started via Group.Go
}

// Stats is a point-in-time copy of the package's pool-usage counters.
type Stats struct {
	// PoolRuns counts ForEach entries that fanned out across
	// goroutines; SeqRuns counts the entries that ran inline (workers<=1
	// or tiny n).
	PoolRuns, SeqRuns int64
	// Tasks is the total number of indices scheduled across all entries.
	Tasks int64
	// WorkersSpawned is the total goroutines ForEach started (the caller
	// participating as worker 0 is not counted). WorkersSpawned/PoolRuns
	// approximates the mean fan-out width per pooled entry.
	WorkersSpawned int64
	// GroupTasks is the total goroutines started through Group.Go.
	GroupTasks int64
}

// Snapshot returns the current pool-usage counters.
func Snapshot() Stats {
	return Stats{
		PoolRuns:       stats.poolRuns.Load(),
		SeqRuns:        stats.seqRuns.Load(),
		Tasks:          stats.tasks.Load(),
		WorkersSpawned: stats.workersSpawned.Load(),
		GroupTasks:     stats.groupTasks.Load(),
	}
}

// Workers resolves a worker-count knob: values < 1 select
// runtime.GOMAXPROCS(0) (the pool's default), everything else passes
// through. Callers plumb user-facing `-workers` flags through this so 0
// uniformly means "all cores".
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// panicError carries a recovered panic from a worker to the caller
// goroutine so it can be re-raised with the original value visible.
type panicError struct {
	index int
	value any
	stack []byte
}

func (p *panicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", p.index, p.value, p.stack)
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (plus the caller, which also works). It returns the error of the
// lowest-failing index, or nil when every call succeeds. Once any call
// fails, no NEW indices are started; in-flight calls finish. A panic in
// fn is recovered and re-raised in the caller's goroutine with the
// worker's stack trace attached, so a crashing task never kills the
// process from an anonymous goroutine.
//
// workers <= 1 (after Workers resolution the caller performed, if any)
// runs the plain sequential loop inline — no goroutines, no atomics —
// so a parallelism knob of 1 costs nothing over the pre-pool code.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	stats.tasks.Add(int64(n))
	if workers <= 1 {
		stats.seqRuns.Add(1)
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	stats.poolRuns.Add(1)
	stats.workersSpawned.Add(int64(workers - 1))

	var (
		next     atomic.Int64 // next index to claim
		failed   atomic.Bool  // stop claiming new work
		mu       sync.Mutex   // guards firstIdx and firstErr
		firstIdx = n          // lowest failing index seen; guarded by mu
		firstErr error        // guarded by mu
	)
	record := func(i int, err error) {
		failed.Store(true)
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
	}
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						buf := make([]byte, 64<<10)
						err = &panicError{index: i, value: r, stack: buf[:runtime.Stack(buf, false)]}
					}
				}()
				return fn(i)
			}()
			if err != nil {
				record(i, err)
				return
			}
		}
	}

	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the caller is worker 0
	wg.Wait()

	// All workers have joined, so the lock is uncontended; taking it
	// anyway keeps the guarded-by discipline checkable.
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		if p, ok := firstErr.(*panicError); ok {
			panic(p.Error())
		}
		return firstErr
	}
	return nil
}

// Group is an error-collecting goroutine group for concurrent servers and
// demos — the sanctioned replacement for bare `go` statements where the
// task set is not an indexed range (e.g. one goroutine per TCP peer). The
// zero value is ready to use. The first error wins; a panicking task is
// re-raised from Wait with its stack attached.
type Group struct {
	wg    sync.WaitGroup
	mu    sync.Mutex  // guards first, panic and count
	first error       // guarded by mu
	panic *panicError // guarded by mu
	count int         // guarded by mu
}

// Go starts fn on its own goroutine, tracked by the group.
func (g *Group) Go(fn func() error) {
	g.mu.Lock()
	idx := g.count
	g.count++
	g.mu.Unlock()
	stats.groupTasks.Add(1)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					buf := make([]byte, 64<<10)
					err = &panicError{index: idx, value: r, stack: buf[:runtime.Stack(buf, false)]}
				}
			}()
			return fn()
		}()
		if err != nil {
			g.mu.Lock()
			if p, ok := err.(*panicError); ok && g.panic == nil {
				g.panic = p
			} else if g.first == nil {
				g.first = err
			}
			g.mu.Unlock()
		}
	}()
}

// Wait blocks until every started task returns, then re-raises the first
// recorded panic or returns the first recorded error.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.panic != nil {
		panic(g.panic.Error())
	}
	return g.first
}

// splitmix64 is the SplitMix64 output function — the same generator
// field.SeededSource uses, duplicated here because parallel must not
// depend on the field package (it sits below everything).
func splitmix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitSeeds derives n statistically independent seeds from one base seed
// by iterating SplitMix64 — the scheme for giving every goroutine (or
// every index of a parallel sweep) its own field.SeededSource or
// math/rand stream. Because each index's stream depends only on
// (seed, i), never on which worker ran it or in what order, parallel
// runs consume randomness identically to sequential runs.
func SplitSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	state := uint64(seed)
	for i := range out {
		state = splitmix64(state)
		out[i] = int64(state)
	}
	return out
}
