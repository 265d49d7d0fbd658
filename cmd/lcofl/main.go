// Command lcofl is the experiment driver for the L-CoFL reproduction.
//
// Usage:
//
//	lcofl run -figure fig5 [-vehicles 100] [-rounds 15] [-rows 2500] [-seed 1] [-out fig5.tsv]
//	lcofl all [-outdir results] [flags]
//	lcofl demo [-vehicles 40] [-malicious 0.3]
//	lcofl serve -addr :9444 [-vehicles 20] [-rounds 10] [-seed 1] [-sessions 3 -max-conns 40 -queue-depth 60]
//	lcofl vehicle -addr host:9444 -id 3 [-session s1] [-malicious] [-seed 1] [-chaos SPEC]
//	lcofl dist [-vehicles 12] [-rounds 3] [-seed 1] [-chaos SPEC]
//	lcofl soak [-sessions 3] [-vehicles 12] [-tcp] [-max-conns 24] [-chaos SPEC]
//
// "run" regenerates one paper figure's data as TSV; "all" writes every
// figure to a directory; "demo" walks one verified round verbosely;
// "serve"/"vehicle" run the genuinely distributed deployment over TCP
// (both sides derive the dataset deterministically from the shared seed,
// so no data file needs to be exchanged); "dist" runs the same
// distributed session in one process over in-memory pipes, optionally
// under a seeded fault-injection spec (see internal/chaos and DESIGN.md
// §11) — the CI chaos gate; "soak" runs many sessions and their vehicles
// in one process. serve, dist and soak share one runner (fleet.go): every
// session sits behind a node.Fleet, which admits each connection, reads
// its hello once, and hands a vehicle that redials back to its session
// (DESIGN.md §16).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/adversary"
	"repro/internal/approx"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/obs/debugz"
	"repro/internal/plot"
	"repro/internal/traffic"
	"repro/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "all":
		err = cmdAll(os.Args[2:])
	case "demo":
		err = cmdDemo(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "vehicle":
		err = cmdVehicle(os.Args[2:])
	case "dist":
		err = cmdDist(os.Args[2:])
	case "soak":
		err = cmdSoak(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "lcofl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcofl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `lcofl — Lagrange Coded Federated Learning reproduction driver

commands:
  run      regenerate one figure (fig2..fig9) as TSV
  all      regenerate every figure into a directory
  demo     walk one verified round verbosely
  serve    run a fusion centre's sessions over TCP (-checkpoint saves the model)
  vehicle  run one vehicle over TCP (with bounded reconnect)
  dist     run one session and its vehicles in-process over pipes, optionally under -chaos faults
  soak     run many sessions and their vehicles in-process (pipes or TCP)
  predict  load a model checkpoint and score a dataset
`)
}

func addOptionFlags(fs *flag.FlagSet) *experiments.Options {
	o := &experiments.Options{}
	fs.IntVar(&o.Vehicles, "vehicles", 0, "fleet size V (0 = paper default 100)")
	fs.IntVar(&o.Rounds, "rounds", 0, "global rounds per run (0 = default 15)")
	fs.IntVar(&o.Rows, "rows", 0, "synthetic dataset rows (0 = default 2500)")
	fs.Int64Var(&o.Seed, "seed", 1, "master seed")
	return o
}

// addProfileFlags registers -cpuprofile/-memprofile and returns a starter
// whose stop function finalises the profiles (see EXPERIMENTS.md,
// "Profiling").
func addProfileFlags(fs *flag.FlagSet) func() (stop func() error, err error) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with `go tool pprof`)")
	mem := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	return func() (func() error, error) {
		var cpuFile *os.File
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				return nil, err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				_ = f.Close() // the profile-start error takes precedence
				return nil, err
			}
			cpuFile = f
		}
		stop := func() error {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					return err
				}
			}
			if *mem != "" {
				f, err := os.Create(*mem)
				if err != nil {
					return err
				}
				defer f.Close()
				runtime.GC() // flush garbage so the profile shows live allocations
				if err := pprof.WriteHeapProfile(f); err != nil {
					return err
				}
			}
			return nil
		}
		return stop, nil
	}
}

// watchSignals installs a SIGINT/SIGTERM handler that runs flush —
// the once-wrapped observability shutdown — before exiting, so an
// interrupted session still yields a valid (flushed) trace and a final
// metrics snapshot instead of a truncated file.
func watchSignals(flush func() error) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	//lint:ignore rawgo the signal watcher lives for the whole process and exits it; nothing joins it
	go func() {
		sig := <-ch
		if err := flush(); err != nil {
			fmt.Fprintln(os.Stderr, "lcofl:", err)
		}
		code := 130 // 128 + SIGINT
		if sig == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()
}

// addObsFlags registers -trace/-metrics (plus -debug-addr when
// withDebug is set) and returns a builder. The builder yields the run's
// Obs (nil when no flag is set, so the whole stack stays
// uninstrumented), the live introspection server (nil without
// -debug-addr), and a close function that stops the runtime sampler,
// publishes the worker-pool counters, flushes the trace, and writes the
// metrics snapshot. The close function is idempotent and also wired to
// SIGINT/SIGTERM, so interrupted runs flush too. See DESIGN.md §10/§15.
func addObsFlags(fs *flag.FlagSet, withDebug bool) func() (*obs.Obs, *debugz.Server, func() error, error) {
	trace := fs.String("trace", "", "write a JSONL event trace to this file (summarise with cmd/tracereport)")
	metricsPath := fs.String("metrics", "", "write a JSON counter/gauge/histogram snapshot to this file on exit")
	debugAddr := new(string)
	if withDebug {
		debugAddr = fs.String("debug-addr", "",
			"serve the live introspection plane (/healthz /metricz /roundz /profilez, net/http/pprof) on this address")
	}
	return func() (*obs.Obs, *debugz.Server, func() error, error) {
		if *trace == "" && *metricsPath == "" && *debugAddr == "" {
			return nil, nil, func() error { return nil }, nil
		}
		reg := obs.NewRegistry()
		clock := obs.NewRealClock()
		var tr *obs.Tracer
		var traceFile *os.File
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				return nil, nil, nil, err
			}
			traceFile = f
			tr = obs.NewTracer(f, clock)
		}
		o := obs.New(reg, tr, clock)
		sampler := obs.NewRuntimeSampler(reg)
		var dbg *debugz.Server
		if *debugAddr != "" {
			// Periodic heap profiles back /profilez between scrapes.
			sampler.EnableProfiles(clock)
			srv, err := debugz.Start(debugz.Config{
				Addr:     *debugAddr,
				Registry: reg,
				Sampler:  sampler,
				Clock:    clock,
			})
			if err != nil {
				if traceFile != nil {
					_ = traceFile.Close()
				}
				return nil, nil, nil, err
			}
			dbg = srv
			fmt.Fprintf(os.Stderr, "lcofl: debug server on http://%s\n", dbg.Addr())
		}
		sampler.Start(obs.DefaultSampleInterval)
		closeObs := func() error {
			firstErr := dbg.Close()
			sampler.Stop()
			if traceFile != nil {
				if err := tr.Flush(); err != nil && firstErr == nil {
					firstErr = err
				}
				if err := traceFile.Close(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			if *metricsPath != "" {
				f, err := os.Create(*metricsPath)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					if err := reg.WriteJSON(f); err != nil && firstErr == nil {
						firstErr = err
					}
					if err := f.Close(); err != nil && firstErr == nil {
						firstErr = err
					}
				}
			}
			return firstErr
		}
		// Both the deferred command-exit path and the signal handler call
		// the close function; the Once keeps the flush single-shot.
		var once sync.Once
		var closeErr error
		closeOnce := func() error {
			once.Do(func() { closeErr = closeObs() })
			return closeErr
		}
		watchSignals(closeOnce)
		return o, dbg, closeOnce, nil
	}
}

func cmdRun(args []string) (retErr error) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	o := addOptionFlags(fs)
	figure := fs.String("figure", "", "figure to regenerate (fig2..fig9, ext-*)")
	out := fs.String("out", "", "output file (default stdout)")
	repeat := fs.Int("repeat", 1, "repeat over this many consecutive seeds and report mean ± std")
	asPlot := fs.Bool("plot", false, "render an ASCII chart instead of TSV")
	profiles := addProfileFlags(fs)
	observe := addObsFlags(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *figure == "" {
		return fmt.Errorf("run: -figure is required")
	}
	driver, err := experiments.ByName(*figure)
	if err != nil {
		return err
	}
	ob, _, closeObs, err := observe()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeObs(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	o.Obs = ob
	stopProfiles, err := profiles()
	if err != nil {
		return err
	}
	clock := obs.NewRealClock()
	start := clock.Now()
	var fig *experiments.Figure
	if *repeat > 1 {
		seeds := make([]int64, *repeat)
		for i := range seeds {
			seeds[i] = o.Seed + int64(i)
		}
		fig, err = experiments.Repeat(driver, *o, seeds)
	} else {
		fig, err = driver(*o)
	}
	if perr := stopProfiles(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "lcofl: %s computed in %s\n", *figure, (clock.Now() - start).Round(time.Millisecond))
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *asPlot {
		return plot.RenderFigure(w, fig, plot.Options{})
	}
	return fig.WriteTSV(w)
}

func cmdAll(args []string) (retErr error) {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	o := addOptionFlags(fs)
	outdir := fs.String("outdir", "results", "output directory")
	profiles := addProfileFlags(fs)
	observe := addObsFlags(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return err
	}
	ob, _, closeObs, err := observe()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeObs(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	o.Obs = ob
	stopProfiles, err := profiles()
	if err != nil {
		return err
	}
	figs, err := experiments.All(*o)
	if perr := stopProfiles(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	for _, fig := range figs {
		path := filepath.Join(*outdir, fig.Name+".tsv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fig.WriteTSV(f); err != nil {
			_ = f.Close() // the write error takes precedence
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "lcofl: wrote %s\n", path)
	}
	return nil
}

func cmdDemo(args []string) (retErr error) {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	vehicles := fs.Int("vehicles", 40, "fleet size")
	malicious := fs.Float64("malicious", 0.3, "malicious fraction")
	seed := fs.Int64("seed", 1, "seed")
	observe := addObsFlags(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ob, _, closeObs, err := observe()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeObs(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()

	fmt.Printf("L-CoFL demo: %d vehicles, %.0f%% malicious\n\n", *vehicles, *malicious*100)

	const rounds = 10
	d, err := experiments.Scenario{
		Vehicles: *vehicles, Rounds: rounds, Rows: 1500, Batches: 16,
		MaliciousFraction: *malicious, Seed: *seed, Obs: ob,
	}.Deploy()
	if err != nil {
		return err
	}
	act := approx.FromPolynomial("demo", d.Server.ActivationCoeffs)
	fmt.Printf("Step 1  activation approximated by least squares (degree 1): %v\n", act.Poly)

	data := make([][]nn.Sample, len(d.Clients))
	for i, c := range d.Clients {
		data[i] = c.Data
	}
	refX := d.Server.RefX
	sys, err := fl.NewSystem(d.Server.FL, data, refX, act)
	if err != nil {
		return err
	}
	scheme, err := core.NewScheme(refX, d.Server.Scheme)
	if err != nil {
		return err
	}
	fmt.Printf("        recover threshold K=%d, E-security budget %d of %d vehicles (eq. 6)\n",
		scheme.RecoverThreshold(), scheme.MaxMalicious(), *vehicles)
	fmt.Printf("        verification: %d slots x 2 symbols + %d learning estimates per vehicle\n\n",
		scheme.Slots(), len(refX))

	plan := d.Plan
	if plan != nil {
		fmt.Printf("Step 2  %d vehicles turned malicious (constant-lie): %v\n", plan.Count(), plan.IDs())
		if plan.Count() > scheme.MaxMalicious() {
			fmt.Printf("        WARNING: %d malicious exceeds the eq. 6 budget of %d — decoding will refuse and rounds degrade to the median fallback\n", plan.Count(), scheme.MaxMalicious())
		}
	}
	fmt.Println()

	for r := 0; r < rounds; r++ {
		if _, err := sys.RunRound(scheme, plan, nil); err != nil {
			return err
		}
		acc, err := sys.Accuracy(d.Test.Samples)
		if err != nil {
			return err
		}
		fmt.Printf("Step 3  round %2d: decode failures %d/%d, flagged %2d vehicles, test accuracy %.3f\n",
			r+1, scheme.DecodeFailures, scheme.Slots(), len(scheme.SuspectedMalicious()), acc)
	}
	fmt.Printf("\nFlagged vehicles: %v\n", scheme.SuspectedMalicious())
	fmt.Println("All malicious vehicles identified by the Reed-Solomon verification channel;")
	fmt.Println("their estimation results never entered the shared model update.")
	return nil
}

// addChaosFlag registers -chaos and returns a builder for the fault
// injector. An empty spec yields a nil injector (fault-free run); the
// grammar is documented in internal/chaos and DESIGN.md §11.
func addChaosFlag(fs *flag.FlagSet) func(ob *obs.Obs) (*chaos.Injector, error) {
	spec := fs.String("chaos", "", "seeded fault-injection spec, e.g. 'seed=7;drop.upload=0.15:max=4;crash@3=before-upload:2'")
	return func(ob *obs.Obs) (*chaos.Injector, error) {
		if *spec == "" {
			return nil, nil
		}
		parsed, err := chaos.Parse(*spec)
		if err != nil {
			return nil, err
		}
		return chaos.New(parsed, chaos.Options{Obs: ob}), nil
	}
}

// addPipelineFlags registers the round-engine knob shared by serve and
// dist and returns an applier that copies it into a ServerConfig. The
// default wait-budget waits for the whole fleet every round; see
// DESIGN.md §14.
func addPipelineFlags(fs *flag.FlagSet) func(*node.ServerConfig) {
	waitBudget := fs.Int("wait-budget", 0,
		"uploads beyond the recover threshold K to wait for before closing a round (0 = wait for the whole fleet)")
	return func(cfg *node.ServerConfig) {
		cfg.WaitBudget = *waitBudget
	}
}

// chaosWrap applies the injector when one is configured.
func chaosWrap(inj *chaos.Injector, peer int, c transport.Conn) transport.Conn {
	if inj == nil {
		return c
	}
	return inj.Wrap(peer, c)
}

// chooseBatches picks M so the degree-1 recover threshold K = M fits the
// fleet with room for errors (eq. 6).
func chooseBatches(vehicles int) int {
	switch {
	case vehicles >= 32:
		return 16
	case vehicles >= 16:
		return 8
	default:
		return 4
	}
}

// deploy derives the session every networked command runs — 2 000
// rows, M = chooseBatches(V), degree 1 — as an experiments.Scenario in
// the engine's form. Both sides of a TCP deployment derive it from the
// shared seed, and a session in which every upload arrives ends on that
// Scenario's Run(LCoFL) bit for bit.
func deploy(vehicles, rounds int, seed int64, malicious float64, ob *obs.Obs) (*experiments.Deployment, error) {
	return experiments.Scenario{
		Vehicles: vehicles, Rounds: rounds, Rows: 2000, Batches: chooseBatches(vehicles),
		MaliciousFraction: malicious, Seed: seed, Obs: ob,
	}.Deploy()
}

// verdictTotals is the line serve, dist and soak end a session on: its
// verdicts summed by kind, which add up to rounds x vehicles, then the
// recovery work its round records counted.
func verdictTotals(rep *node.Report) string {
	var t fl.Tally
	vehicles := 0
	for _, rec := range rep.Records {
		t.Add(rec.Verdicts)
		vehicles = len(rec.Verdicts)
	}
	return fmt.Sprintf("verdicts over %d rounds x %d vehicles: %v (%d corrupt frames, %d retransmits, %d rejoins, %d recv errors, %d degraded rounds)",
		rep.Rounds, vehicles, t, rep.CorruptFrames, rep.Retransmits, rep.Rejoins, rep.RecvErrors, rep.DegradedRounds)
}

func cmdServe(args []string) (retErr error) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":9444", "listen address")
	vehicles := fs.Int("vehicles", 20, "vehicles per session")
	rounds := fs.Int("rounds", 10, "global rounds")
	seed := fs.Int64("seed", 1, "shared scenario seed")
	checkpoint := fs.String("checkpoint", "", "write the final shared model as JSON (one session only)")
	sessionsN := fs.Int("sessions", 1, "concurrent sessions behind this listener (IDs s0..sN-1; vehicles join with -session, s0 without it)")
	maxConns := fs.Int("max-conns", 0, "global connection budget, reserved in session-sized chunks (0 = unlimited)")
	queueDepth := fs.Int("queue-depth", 0, "handshaked connections parked when the budget is exhausted (0 = reject with a retry hint)")
	pipeline := addPipelineFlags(fs)
	observe := addObsFlags(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *checkpoint != "" && *sessionsN > 1 {
		return fmt.Errorf("serve: -checkpoint writes one session's model; it cannot be combined with -sessions %d", *sessionsN)
	}
	ob, dbg, closeObs, err := observe()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeObs(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	_, err = fleetRun{
		cmd: "serve", addr: *addr, sessions: *sessionsN, vehicles: *vehicles, rounds: *rounds, seed: *seed,
		maxConns: *maxConns, queueDepth: *queueDepth, pipeline: pipeline, checkpoint: *checkpoint,
	}.run(ob, dbg)
	return err
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	modelPath := fs.String("model", "", "model checkpoint (JSON from serve -checkpoint)")
	csvPath := fs.String("csv", "", "dataset CSV (from trafficgen); default: fresh synthetic data")
	rows := fs.Int("rows", 200, "synthetic rows when no -csv is given")
	seed := fs.Int64("seed", 99, "synthetic data seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("predict: -model is required")
	}
	data, err := os.ReadFile(*modelPath)
	if err != nil {
		return err
	}
	model, err := nn.UnmarshalNetworkJSON(data)
	if err != nil {
		return err
	}
	var ds *traffic.Dataset
	if *csvPath != "" {
		f, err := os.Open(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		ds, err = traffic.ReadCSV(f)
		if err != nil {
			return err
		}
	} else {
		ds, err = traffic.Generate(traffic.GenConfig{Rows: *rows, Seed: *seed})
		if err != nil {
			return err
		}
	}
	correct := 0
	fmt.Println("row\testimate\tlabel")
	for i, s := range ds.Samples {
		pi, err := model.EstimateClamped(s.X)
		if err != nil {
			return err
		}
		if (pi > 0.5) == (s.Y == 1) {
			correct++
		}
		if i < 20 {
			fmt.Printf("%d\t%.3f\t%g\n", i, pi, s.Y)
		}
	}
	if ds.Len() > 20 {
		fmt.Printf("… (%d more rows)\n", ds.Len()-20)
	}
	fmt.Printf("accuracy: %.3f over %d rows\n", float64(correct)/float64(ds.Len()), ds.Len())
	return nil
}

func cmdVehicle(args []string) (retErr error) {
	fs := flag.NewFlagSet("vehicle", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9444", "fusion centre address")
	id := fs.Int("id", 0, "vehicle ID (0..V-1)")
	vehicles := fs.Int("vehicles", 20, "vehicles per session (must match the server)")
	seed := fs.Int64("seed", 1, "shared scenario seed")
	session := fs.String("session", "", "session to join (s0, s1, … as served by lcofl serve -sessions; empty joins s0)")
	malicious := fs.Bool("malicious", false, "lie on every upload")
	retries := fs.Int("retries", 5, "consecutive failed connection attempts before giving up")
	dialTimeout := fs.Duration("dial-timeout", transport.DefaultDialTimeout, "per-attempt connection timeout")
	buildChaos := addChaosFlag(fs)
	observe := addObsFlags(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ob, _, closeObs, err := observe()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeObs(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	inj, err := buildChaos(ob)
	if err != nil {
		return err
	}
	// Both sides derive the session's scenario from the master seed and
	// the session index, so a vehicle only needs the session ID to agree
	// with the fusion centre; s0's seed is the master seed itself.
	scenarioSeed := *seed
	if *session != "" {
		var j int
		if _, err := fmt.Sscanf(*session, "s%d", &j); err != nil || j < 0 {
			return fmt.Errorf("vehicle: -session must look like s0, s1, …; got %q", *session)
		}
		scenarioSeed = fleetSessionSeed(*seed, j)
	}
	d, err := deploy(*vehicles, 0, scenarioSeed, 0, nil)
	if err != nil {
		return err
	}
	if *id < 0 || *id >= len(d.Clients) {
		return fmt.Errorf("vehicle: id %d outside fleet of %d", *id, len(d.Clients))
	}
	cc := d.Clients[*id]
	cc.SessionID = *session
	if *malicious {
		cc.Corrupt = adversary.ConstantLie{Value: 5}
		fmt.Printf("lcofl vehicle %d: running MALICIOUSLY\n", *id)
	}
	if inj != nil {
		fmt.Printf("lcofl vehicle %d: chaos spec %q active\n", *id, inj.Spec().String())
	}
	// The session survives connection loss: RunVehicleRetry redials with
	// exponential backoff, and the fusion centre's rejoin path resends
	// whatever the vehicle still owes. The injector persists across
	// redials so a spec'd crash fires exactly once.
	dial := func() (transport.Conn, error) {
		raw, err := transport.DialTCPTimeout(*addr, *dialTimeout)
		if err != nil {
			return nil, err
		}
		return chaosWrap(inj, *id, transport.Instrument(raw, ob, "server")), nil
	}
	fmt.Printf("lcofl vehicle %d: dialing %s with %d local samples\n", *id, *addr, len(cc.Data))
	if err := node.RunVehicleRetry(cc, node.RetryConfig{
		Dial:        dial,
		MaxAttempts: *retries,
		Obs:         ob,
	}); err != nil {
		return err
	}
	fmt.Printf("lcofl vehicle %d: session finished\n", *id)
	return nil
}

// cmdDist runs the whole distributed deployment — fusion centre plus
// fleet — inside one process over the in-memory pipe fabric, with every
// vehicle-side connection optionally wrapped by the -chaos injector and
// every vehicle running under bounded-reconnect retry. This is what the
// CI chaos-smoke gate drives: a seeded fault schedule, then
// cmd/tracereport cross-checks the recovery ledger.
func cmdDist(args []string) (retErr error) {
	fs := flag.NewFlagSet("dist", flag.ExitOnError)
	vehicles := fs.Int("vehicles", 12, "fleet size")
	rounds := fs.Int("rounds", 3, "global rounds")
	seed := fs.Int64("seed", 1, "shared scenario seed")
	malicious := fs.Float64("malicious", 0, "malicious fraction")
	timeout := fs.Duration("timeout", 10*time.Second, "per-round upload deadline (dropped uploads surface as stragglers after this)")
	retries := fs.Int("retries", 5, "per-vehicle consecutive failed connection attempts before giving up")
	pipeline := addPipelineFlags(fs)
	buildChaos := addChaosFlag(fs)
	observe := addObsFlags(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ob, dbg, closeObs, err := observe()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeObs(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	inj, err := buildChaos(ob)
	if err != nil {
		return err
	}
	_, err = fleetRun{
		cmd: "dist", sessions: 1, vehicles: *vehicles, rounds: *rounds, seed: *seed, malicious: *malicious,
		timeout: *timeout, pipeline: pipeline, local: true, inj: inj, retries: *retries,
	}.run(ob, dbg)
	return err
}
