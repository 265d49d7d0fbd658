package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/chaos"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/transport"
)

// sessionOpts selects what one session does beyond the workload shape.
type sessionOpts struct {
	rounds int      // timed rounds; warmupRounds run before them
	record bool     // traced pass: record events on both ends of every connection
	obs    *obs.Obs // ServerConfig.Obs, for the obs-overhead repetition
}

// sessionResult is one closed-loop session as seen from outside.
type sessionResult struct {
	in *inputs

	setup   time.Duration // start of the workload's data generation -> window open
	window  time.Duration
	rounds  int             // timed rounds
	latency []time.Duration // one per timed round
	slices  []sliceStat     // the timed rounds in runs of workload.slice

	mallocs    uint64
	allocBytes uint64
	wire       int64

	report       *node.Report
	vehicleErr   error
	testMSE      float64
	untrainedMSE float64
	paramsDigest string

	rec *recording
}

func (r *sessionResult) roundsPerSec() float64 { return float64(r.rounds) / r.window.Seconds() }

// sliceStat is what one run of consecutive timed rounds cost. A run's
// timing metrics are taken over its slices, not over its sessions: a
// slice is short enough (about half a second) for many of them to fall
// between two disturbances of a shared host.
type sliceStat struct {
	rate  float64 // rounds per second
	p50ms float64 // median round latency
	cpuMs float64 // process CPU per round
}

// sliceStats cuts a session's timed rounds into slices of n rounds;
// starts are the round boundaries and cpu the process CPU time at every
// n-th of them. Rounds beyond the last whole slice are left out.
func sliceStats(starts, cpu []time.Duration, n int) []sliceStat {
	var out []sliceStat
	for i := 0; i+1 < len(cpu); i++ {
		bounds := starts[i*n : (i+1)*n+1]
		lat := make([]float64, n)
		for j := range lat {
			lat[j] = msOf(bounds[j+1] - bounds[j])
		}
		out = append(out, sliceStat{
			rate:  float64(n) / (bounds[n] - bounds[0]).Seconds(),
			p50ms: median(lat),
			cpuMs: msOf(cpu[i+1]-cpu[i]) / float64(n),
		})
	}
	return out
}

// runSession generates the workload's inputs from seed and drives one
// fusion centre with its V vehicles, all in this process: the fusion
// centre is the calling goroutine, each vehicle one goroutine running
// node.RunVehicle. It is a closed loop with one client — round r+1 starts
// only when round r closed.
func runSession(w workload, seed int64, opt sessionOpts) (*sessionResult, error) {
	test, err := heldOut(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: generating the held-out set: %w", w.name, err)
	}
	runtime.GC()
	clock := obs.NewRealClock()

	in, err := generate(w, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}
	cfg := in.serverConfig(warmupRounds + opt.rounds)
	cfg.Obs = opt.obs
	srv, err := node.NewServer(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := &sessionResult{in: in, rounds: opt.rounds}
	untrained := srv.Shared().Clone() // evaluated after the session, off the clock

	m := newMeter(clock, opt.rounds, w.slice)
	if opt.record {
		m.rec = &recording{captureRound: warmupRounds + (opt.rounds+1)/2}
	}
	var inj *chaos.Injector
	if in.chaosSpec != nil {
		inj = chaos.New(in.chaosSpec, chaos.Options{})
	}
	// wrapVehicle layers the vehicle end: recorder outermost, so the
	// compute it measures ends where the vehicle hands over its upload,
	// then the straggler delay, then the fabric.
	taps := make([]*vehicleTap, w.vehicles)
	wrapVehicle := func(id int, c transport.Conn) transport.Conn {
		if inj != nil && id >= w.vehicles-w.stragglers {
			c = inj.Wrap(id, c)
		}
		if opt.record {
			taps[id] = &vehicleTap{inner: c, clock: clock, vehicle: id, open: -1}
			c = taps[id]
		}
		return c
	}

	fusion := make([]transport.Conn, w.vehicles)
	raw := make([]transport.Conn, 0, 2*w.vehicles) // every end, for closing
	var dialed []transport.Conn                    // vehicle ends of a TCP session, filled by the vehicles
	var vehicles parallel.Group
	if w.tcp {
		ln, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		dialed = make([]transport.Conn, w.vehicles)
		for id := 0; id < w.vehicles; id++ {
			vehicles.Go(func() error {
				c, err := transport.DialTCP(ln.Addr())
				if err != nil {
					_ = ln.Close() // unblocks the accept loop below
					return err
				}
				dialed[id] = c
				return node.RunVehicle(wrapVehicle(id, c), in.clientConfig(id))
			})
		}
		var acceptErr error
		for i := range fusion {
			c, err := ln.Accept()
			if err != nil {
				acceptErr = err
				break
			}
			raw = append(raw, c)
			fusion[i] = newFusionConn(c, m)
		}
		_ = ln.Close()
		if acceptErr != nil {
			closeAll(raw)
			_ = vehicles.Wait()
			return nil, fmt.Errorf("%s: accept: %w", w.name, acceptErr)
		}
	} else {
		for id := 0; id < w.vehicles; id++ {
			serverEnd, vehicleEnd := transport.Pipe()
			raw = append(raw, serverEnd, vehicleEnd)
			fusion[id] = newFusionConn(serverEnd, m)
			vehicles.Go(func() error {
				return node.RunVehicle(wrapVehicle(id, vehicleEnd), in.clientConfig(id))
			})
		}
	}

	report, runErr := srv.Run(fusion)
	if runErr != nil {
		closeAll(raw) // a failed fusion centre never sends Finished
	}
	res.vehicleErr = vehicles.Wait()
	// Closing both ends lets the server's receiver goroutines exit.
	closeAll(raw)
	closeAll(dialed)
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", w.name, runErr)
	}
	if !m.finished || len(m.starts) != opt.rounds+1 {
		return nil, fmt.Errorf("%s: saw %d round boundaries, want %d", w.name, len(m.starts), opt.rounds+1)
	}

	res.report = report
	res.setup = m.open.at
	res.window = m.close.at - m.open.at
	res.mallocs = m.close.mallocs - m.open.mallocs
	res.allocBytes = m.close.allocBytes - m.open.allocBytes
	res.wire = m.close.wire - m.open.wire
	res.latency = make([]time.Duration, opt.rounds)
	for i := range res.latency {
		res.latency[i] = m.starts[i+1] - m.starts[i]
	}
	res.slices = sliceStats(m.starts, m.sliceCPU, w.slice)
	if res.untrainedMSE, err = testMSE(untrained, test); err != nil {
		return nil, err
	}
	if res.testMSE, err = testMSE(srv.Shared(), test); err != nil {
		return nil, err
	}
	res.paramsDigest = digest(report.FinalParams)
	if opt.record {
		m.rec.collect(fusion, taps, m.starts)
		res.rec = m.rec
	}
	return res, nil
}

func closeAll(conns []transport.Conn) {
	for _, c := range conns {
		if c != nil {
			_ = c.Close()
		}
	}
}

// digest fingerprints a parameter vector bit for bit.
func digest(params []float64) string {
	b := make([]byte, 0, 8*len(params))
	for _, p := range params {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:6])
}
