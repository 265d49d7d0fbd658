// Command benchmark is the repository's one end-to-end performance
// harness: closed-loop fusion-centre sessions on four workloads, a
// correctness gate, and a traced pass that produces a per-layer ledger.
// See README.md beside this file; BENCHMARK.json at the repository root
// declares the metrics it prints.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// result is the machine-readable last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// printer writes the report. A failed write to standard output has
// nowhere better to be reported, so printf drops the error in one place.
type printer struct{ w io.Writer }

func (p printer) printf(format string, args ...any) {
	_, _ = fmt.Fprintf(p.w, format, args...)
}

// run parses the command line and hands over to runWith.
func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "derives every dataset, partition, scheme, adversary-plan and chaos seed")
	seconds := fs.Float64("seconds", 22, "timed window per workload; sessions repeat until their windows add up to it")
	trace := fs.Int("trace", -1, "0: timed repetitions only; 1: traced pass only; -1: both")
	selfcheck := fs.Bool("selfcheck", false, "run the timed part twice and fail if the two sets disagree beyond the bounds")
	outDir := fs.String("out", "benchmark/out", "directory for trace-<workload>.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		ws = []workload{w}
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}
	// One core is left to the kernel, the driver and whatever else the
	// guest runs: with a session on every core, any of those takes a core
	// from the session and a closed-loop round waits for its slowest
	// vehicle, so runs of the same code spread by a quarter.
	runtime.GOMAXPROCS(max(1, min(runtime.NumCPU()-1, 4)))
	return runWith(ws, options{seed: *seed, seconds: *seconds, trace: *trace, selfcheck: *selfcheck, outDir: *outDir}, w)
}

// runWith runs the given workloads: the timed repetitions with their
// correctness gate, then the traced pass, as o.trace selects.
func runWith(ws []workload, o options, w io.Writer) int {
	stdout := printer{w}
	o.log = stdout
	stdout.printf("# benchmark: GOMAXPROCS=%d nproc=%d %s seed=%d seconds=%g\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), o.seed, o.seconds)

	final := result{Correct: true, Metrics: map[string]metricValue{}}

	// The first session of a process pays for heap growth and cold
	// caches, and the first roundTimeout of rounds runs before any of the
	// program's round timers expires; a discarded session per workload,
	// half the timed length, keeps both out of every measurement below.
	for _, w := range ws {
		if _, err := runSession(w, o.seed, sessionOpts{rounds: w.rounds / 2}); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	record := func(g *gateResult, w workload) {
		final.Attempted += g.attempted
		final.Failed += g.failed
		for _, f := range g.failures {
			final.Correct = false
			stdout.printf("GATE FAIL %s: %s\n", w.name, f)
		}
	}

	if o.trace != 1 {
		sets := 1
		if o.selfcheck {
			sets = 2
		}
		var summaries []map[string]summary
		for set := 0; set < sets; set++ {
			results, calib, err := timedRun(ws, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			sums := map[string]summary{}
			for _, w := range ws {
				g := gate(w, results[w.name])
				record(g, w)
				sums[w.name] = summarize(results[w.name])
				printSummary(stdout, w, sums[w.name], g)
			}
			stdout.printf("host.calib_ms %.3f ms (median before %d sessions)\n", median(calib), len(calib))
			summaries = append(summaries, sums)
		}
		if o.selfcheck && !printSelfcheck(stdout, ws, summaries[0], summaries[1]) {
			final.Correct = false
		}
		if len(ws) == 1 {
			for _, m := range endToEnd {
				final.Metrics[m.name] = metricValue{summaries[0][ws[0].name].values[m.name], m.unit}
			}
		}
	}

	if o.trace != 0 {
		for _, w := range ws {
			led, g, err := tracePass(w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			record(g, w)
			printLedger(stdout, w, led)
			if len(ws) == 1 && o.trace == 1 {
				for _, m := range perLayer {
					final.Metrics[m.name] = metricValue{led[m.name], m.unit}
				}
			}
		}
	}

	for name, mv := range final.Metrics {
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			fmt.Fprintf(os.Stderr, "benchmark: metric %s is %v\n", name, mv.Value)
			return 1
		}
	}
	// The driver reads one workload's result from the last line; a run
	// over all workloads or over both passes is for people.
	if len(ws) == 1 && o.trace >= 0 {
		line, err := json.Marshal(final)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		stdout.printf("%s\n", line)
	}
	if !final.Correct {
		return 1
	}
	return 0
}

func printSummary(w printer, wl workload, s summary, g *gateResult) {
	w.printf("\n== %s (%d sessions x %d rounds, %d slices of %d rounds)\n", wl.name, s.reps, len(s.pooled)/s.reps, s.slices, wl.slice)
	for _, m := range endToEnd {
		w.printf("%-22s %14.6g %-6s bound %.2f\n", m.name, s.values[m.name], m.unit, m.bound)
	}
	// Tail latency is reported, not gated, and only where enough rounds
	// lie beyond the percentile.
	for _, p := range []float64{95, 99} {
		if percentileOK(len(s.pooled), p) {
			w.printf("%-22s %14.6g ms     (not gated)\n", fmt.Sprintf("round_p%g_ms", p), percentile(s.pooled, p))
		}
	}
	w.printf("%-22s %14.6g        (%d of %d rounds degraded or lost; bound 0)\n",
		"failed_round_frac", float64(g.failed)/float64(g.attempted), g.failed, g.attempted)
	w.printf("%-22s %14s\n", "params_digest", g.digest)
	if g.ok() {
		w.printf("gate: ok\n")
	}
}

func printLedger(w printer, wl workload, led ledger) {
	w.printf("\n== %s per-layer ledger\n", wl.name)
	for _, m := range perLayer {
		w.printf("%-36s %14.6g %s\n", m.name, led[m.name], m.unit)
	}
}

// printSelfcheck compares two sets of the same code, metric by metric,
// and reports whether every gap is within its bound.
func printSelfcheck(w printer, ws []workload, a, b map[string]summary) bool {
	ok := true
	w.printf("\n== selfcheck: two sets of the same code\n")
	w.printf("%-20s %-22s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "gap", "bound")
	for _, wl := range ws {
		for _, m := range endToEnd {
			x, y := a[wl.name].values[m.name], b[wl.name].values[m.name]
			// Neither set is the parent: the gap is the worsening in
			// whichever direction it is larger.
			gap := max(worsening(x, y, m.higher), worsening(y, x, m.higher))
			verdict := ""
			if !withinBound(x, y, m.bound, m.higher) || !withinBound(y, x, m.bound, m.higher) {
				verdict = "  DISAGREE"
				ok = false
			}
			w.printf("%-20s %-22s %14.6g %14.6g %7.2f%% %6.2f%s\n", wl.name, m.name, x, y, 100*gap, m.bound, verdict)
		}
	}
	return ok
}
