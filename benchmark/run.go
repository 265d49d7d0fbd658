package main

import (
	"io"
	"math"
	"time"

	"repro/internal/obs"
)

// A timed run repeats fixed-length sessions of a workload until their
// windows add up to the requested seconds to within half a session,
// within these limits.
const (
	minReps = 3
	maxReps = 8
)

// options are what the command line selects, plus where the report goes.
type options struct {
	seed      int64
	seconds   float64
	trace     int // 0: timed repetitions only; 1: traced pass only; -1: both
	selfcheck bool
	outDir    string
	log       printer
}

// timedRun runs the untraced repetitions of every given workload,
// interleaved round-robin so a slow stretch on the host hits all of them
// alike. It also returns the host calibration taken before each session.
func timedRun(ws []workload, o options) (map[string][]*sessionResult, []float64, error) {
	results := map[string][]*sessionResult{}
	var calib []float64
	done := func(w workload) bool {
		reps := results[w.name]
		var window time.Duration
		for _, r := range reps {
			window += r.window
		}
		if len(reps) < minReps {
			return false
		}
		// One more session would add about the mean window so far: stop
		// where the total is nearest to the request.
		next := window / time.Duration(len(reps))
		return len(reps) >= maxReps || (window+next/2).Seconds() >= o.seconds
	}
	for rep := 1; ; rep++ {
		ran := false
		for _, w := range ws {
			if done(w) {
				continue
			}
			ran = true
			calib = append(calib, msOf(calibrate()))
			res, err := runSession(w, o.seed, sessionOpts{rounds: w.rounds})
			if err != nil {
				return nil, nil, err
			}
			results[w.name] = append(results[w.name], res)
			o.log.printf("# %s rep %d: %.1f rounds/s, window %.2fs, setup %.2fs\n",
				w.name, rep, res.roundsPerSec(), res.window.Seconds(), res.setup.Seconds())
		}
		if !ran {
			return results, calib, nil
		}
	}
}

// summary holds one workload's end-to-end metrics.
type summary struct {
	values map[string]float64
	reps   int
	slices int
	pooled []float64 // every timed round's latency in ms, all repetitions
}

// summarize reduces a run's sessions to the end-to-end metrics. Counts,
// test_mse and setup_s are medians over sessions. The three timing
// metrics are taken over the slices of all sessions, as the quartile on
// the quiet side: the rate a quarter of the slices beat, the latency and
// CPU cost a quarter of them stay under. Whatever else runs on a shared
// host only ever slows a slice down, so the median over slices moves with
// how much of the run was disturbed, while the quiet quartile holds as
// long as a quarter of the run was not.
func summarize(reps []*sessionResult) summary {
	var rps, p50, cpu, allocs, allocKB, wire, mse, setup, pooled []float64
	for _, r := range reps {
		n := float64(r.rounds)
		for _, sl := range r.slices {
			rps = append(rps, sl.rate)
			p50 = append(p50, sl.p50ms)
			cpu = append(cpu, sl.cpuMs)
		}
		allocs = append(allocs, float64(r.mallocs)/n)
		allocKB = append(allocKB, float64(r.allocBytes)/1024/n)
		wire = append(wire, float64(r.wire)/n)
		mse = append(mse, r.testMSE)
		setup = append(setup, r.setup.Seconds())
		pooled = append(pooled, millis(r.latency)...)
	}
	return summary{
		reps:   len(reps),
		slices: len(rps),
		pooled: pooled,
		values: map[string]float64{
			"rounds_per_s":         percentile(rps, 75),
			"round_p50_ms":         percentile(p50, 25),
			"cpu_ms_per_round":     percentile(cpu, 25),
			"allocs_per_round":     median(allocs),
			"alloc_kb_per_round":   median(allocKB),
			"wire_bytes_per_round": median(wire),
			"test_mse":             median(mse),
			"setup_s":              median(setup),
		},
	}
}

// tracePass produces one workload's per-layer ledger: two untraced
// sessions (the reference rate and the latency tail), one recorded
// session (spans, written to outDir), one session with the program's own
// obs layer on, then the captured round replayed through each layer.
// Sessions here are half the timed length.
func tracePass(w workload, o options) (ledger, *gateResult, error) {
	out := ledger{}
	half := max(2, w.rounds/2)
	total0, steal0 := cpuTicks()

	clock := obs.NewRealClock()
	programObs := obs.New(obs.NewRegistry(), obs.NewTracer(io.Discard, clock), clock)
	// Equal lengths, plain sessions first and last, so drift during the
	// pass biases neither overhead figure.
	opts := []sessionOpts{
		{rounds: half},
		{rounds: half, record: true},
		{rounds: half, obs: programObs},
		{rounds: half},
	}
	var calib []float64
	sessions := make([]*sessionResult, len(opts))
	for i, opt := range opts {
		calib = append(calib, msOf(calibrate()))
		var err error
		if sessions[i], err = runSession(w, o.seed, opt); err != nil {
			return nil, nil, err
		}
	}
	plainA, recorded, withObs, plainB := sessions[0], sessions[1], sessions[2], sessions[3]

	plainRate := (plainA.roundsPerSec() + plainB.roundsPerSec()) / 2
	out["trace.overhead_frac"] = 1 - recorded.roundsPerSec()/plainRate
	out["obs.trace_overhead_frac"] = 1 - withObs.roundsPerSec()/plainRate

	// Too few rounds run here for a p99 (it needs 1000); the timed pass
	// prints one where its pooled rounds allow.
	pooled := append(millis(plainA.latency), millis(plainB.latency)...)
	out["node.round_p95_ms"] = percentile(pooled, 95)
	out["node.round_samples"] = float64(len(pooled))

	views := recorded.rec.rounds()
	spans := recorded.rec.spans(views)
	sessionLedger(recorded, views, spans, out)
	path, err := writeSpans(o.outDir, w.name, spans)
	if err != nil {
		return nil, nil, err
	}
	o.log.printf("# %s: %d spans written to %s\n", w.name, len(spans), path)

	budget := time.Duration(o.seconds / 25 * float64(time.Second))
	if err := replayLayers(recorded, o.seed, budget, out); err != nil {
		return nil, nil, err
	}

	out["node.engine_self_ms"] = out["node.tail_ms"] - out["core.aggregate_streamed_ms"] - out["fl.distill_ms"]
	out["recon.tail_covered_frac"] = (out["core.aggregate_streamed_ms"] + out["fl.distill_ms"]) / out["node.tail_ms"]
	out["recon.vehicle_covered_frac"] = (out["nn.train_ms"] + out["core.upload_ms"]) / out["node.vehicle_compute_ms"]
	for _, name := range []string{"recon.tail_covered_frac", "recon.vehicle_covered_frac"} {
		if v := out[name]; v < 0.7 || v > 1.2 || math.IsNaN(v) {
			o.log.printf("# warning: %s %s = %.2f outside [0.7, 1.2]: the ledger does not explain the round\n", w.name, name, v)
		}
	}

	out["host.calib_ms"] = median(calib)
	total1, steal1 := cpuTicks()
	if total1 > total0 {
		out["host.steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	return out, gate(w, sessions), nil
}
