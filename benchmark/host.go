package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// calibrate times a fixed kernel — allocation, a channel ping-pong and a
// field multiply chain, the three things sessions are made of — on as
// many goroutines as sessions have threads, so two result sets that
// disagree can be told apart from a slow host. It runs on every thread
// because the slow stretches seen on the reference host (15-20 % for a
// minute or two) did not show on a single-threaded kernel.
func calibrate() time.Duration {
	clock := obs.NewRealClock()
	t0 := clock.Now()
	procs := runtime.GOMAXPROCS(0)
	products := make([]field.Element, procs) // keeps the multiply chains live
	// The kernel cannot fail; ForEach only carries the fan-out.
	_ = parallel.ForEach(procs, procs, func(p int) error {
		var keep [][]byte
		for i := 0; i < 20000; i++ {
			keep = append(keep, make([]byte, 256))
		}
		ping, pong := make(chan int), make(chan int)
		var echo parallel.Group
		echo.Go(func() error {
			for v := range ping {
				pong <- v
			}
			return nil
		})
		for i := 0; i < 5000; i++ {
			ping <- len(keep[i])
			<-pong
		}
		close(ping)
		_ = echo.Wait() // the echo task returns nil
		x, y := field.New(3), field.New(0x1234567)
		for i := 0; i < 500000; i++ {
			x = x.Mul(y)
		}
		products[p] = x
		return nil
	})
	return clock.Now() - t0
}

// cpuTicks reads the aggregate CPU line of /proc/stat: total and stolen
// ticks. It returns zeros where /proc is unavailable.
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
