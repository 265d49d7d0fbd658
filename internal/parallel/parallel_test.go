package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d, want 5", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 1000
			counts := make([]atomic.Int64, n)
			if err := ForEach(workers, n, func(i int) error {
				counts[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("index %d ran %d times", i, c)
				}
			}
		})
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	ran := false
	if err := ForEach(4, 0, func(int) error { ran = true; return nil }); err != nil || ran {
		t.Errorf("n=0: err=%v ran=%v", err, ran)
	}
	if err := ForEach(4, -5, func(int) error { ran = true; return nil }); err != nil || ran {
		t.Errorf("n=-5: err=%v ran=%v", err, ran)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errAt := func(bad map[int]bool) error {
		return ForEach(8, 100, func(i int) error {
			if bad[i] {
				return fmt.Errorf("failed at %d", i)
			}
			return nil
		})
	}
	// Run several times: scheduling varies, the reported error must not.
	for trial := 0; trial < 20; trial++ {
		err := errAt(map[int]bool{97: true, 13: true, 55: true})
		if err == nil || err.Error() != "failed at 13" {
			t.Fatalf("trial %d: got %v, want the lowest failing index 13", trial, err)
		}
	}
}

func TestForEachStopsClaimingAfterError(t *testing.T) {
	var started atomic.Int64
	sentinel := errors.New("boom")
	_ = ForEach(2, 1_000_000, func(i int) error {
		started.Add(1)
		return sentinel
	})
	// Both workers can start at most a handful of tasks before observing
	// the failure flag; nowhere near the full range.
	if s := started.Load(); s > 100 {
		t.Errorf("started %d tasks after an immediate error", s)
	}
}

func TestForEachRepanicsWithStack(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic was swallowed")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "task 7 panicked: kaboom") {
			t.Errorf("panic message %q lacks task and value", msg)
		}
		if !strings.Contains(msg, "parallel_test.go") {
			t.Errorf("panic message lacks the worker stack:\n%s", msg)
		}
	}()
	_ = ForEach(4, 16, func(i int) error {
		if i == 7 {
			panic("kaboom")
		}
		return nil
	})
}

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		out, err := Map(workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapNilOnError(t *testing.T) {
	out, err := Map(4, 10, func(i int) (int, error) {
		if i == 3 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Errorf("got out=%v err=%v, want nil slice and an error", out, err)
	}
}

func TestGroupCollectsFirstError(t *testing.T) {
	var g Group
	for i := 0; i < 8; i++ {
		i := i
		g.Go(func() error {
			if i%2 == 1 {
				return fmt.Errorf("odd %d", i)
			}
			return nil
		})
	}
	if err := g.Wait(); err == nil || !strings.Contains(err.Error(), "odd") {
		t.Errorf("Wait() = %v, want an odd-task error", err)
	}
}

func TestGroupRepanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "panicked: group-boom") {
			t.Errorf("recover() = %v, want the group panic", r)
		}
	}()
	var g Group
	g.Go(func() error { panic("group-boom") })
	_ = g.Wait()
}

func TestSplitSeedsDeterministicAndDistinct(t *testing.T) {
	a := SplitSeeds(42, 256)
	b := SplitSeeds(42, 256)
	seen := make(map[int64]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("SplitSeeds not deterministic at %d: %d != %d", i, a[i], b[i])
		}
		if seen[a[i]] {
			t.Fatalf("duplicate derived seed %d at index %d", a[i], i)
		}
		seen[a[i]] = true
	}
	if c := SplitSeeds(43, 1); c[0] == a[0] {
		t.Error("different base seeds produced the same first derived seed")
	}
	// Prefix property: a longer derivation extends a shorter one, so a
	// sweep can grow without reshuffling earlier streams.
	long := SplitSeeds(42, 300)
	for i := range a {
		if long[i] != a[i] {
			t.Fatalf("SplitSeeds(42, 300)[%d] != SplitSeeds(42, 256)[%d]", i, i)
		}
	}
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines and
// collects the results in index order. Error and panic semantics match
// ForEach; on error the returned slice is nil.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
