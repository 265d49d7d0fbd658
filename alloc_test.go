package repro

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// TestAggregateAllocs pins the fusion centre's steady-state allocation
// budget at V=40, M=8, degree 2, S=32 slots, adversaries at the full
// eq. 6 budget. It was 1 209 allocations a call before the scheme reused
// its scratch, and about 35 while Aggregate gathered every slot's word
// and batch-decoded it; ingesting the rows into the scheme's one
// RoundIngest and finishing on it left the targets Aggregate returned
// (1 measured), and writing those into a buffer the scheme keeps leaves
// none (0 measured). The bound of 3 leaves headroom for a GC clearing the
// decoder scratch pools mid-measurement.
func TestAggregateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, net := allocScheme(t)
	rng := rand.New(rand.NewSource(9))
	malicious := rng.Perm(allocVehicles)[:s.MaxMalicious()]
	ups := allocUploads(t, s, net, malicious)
	for i := 0; i < 3; i++ { // warm the aggregate and decoder scratch
		if _, err := s.Aggregate(ups); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(30, func() {
		if _, err := s.Aggregate(ups); err != nil {
			t.Fatal(err)
		}
	})
	if got := len(s.SuspectedMalicious()); got != len(malicious) {
		t.Fatalf("flagged %d vehicles, want %d", got, len(malicious))
	}
	t.Logf("Aggregate allocates %.1f times per call", avg)
	if avg > 3 {
		t.Errorf("Aggregate allocates %.1f times per call, want <= 3", avg)
	}

	// Trace-context propagation must be free when tracing is off: with no
	// obs attached, a scheme carrying a span parent (the node engine sets
	// one every round regardless) must allocate exactly what the plain
	// scheme allocates — the parent is two stored uint64s, and the span
	// emission path behind them is never reached.
	trace := obs.TraceIDFromSeed(3)
	s.SetSpanParent(obs.SpanContext{Trace: trace, Span: obs.DeriveSpan(trace, "node.round", 0)})
	withParent := testing.AllocsPerRun(30, func() {
		if _, err := s.Aggregate(ups); err != nil {
			t.Fatal(err)
		}
	})
	if withParent != avg {
		t.Errorf("SetSpanParent changed the untraced alloc count: %.1f with parent, %.1f without", withParent, avg)
	}
}

// TestAggregateFallbackAllocs pins the round the fusion centre is under
// more than E liars: verification is unusable and every target is a
// per-sample median over all vehicles. That loop built a value slice and
// a sorted copy for each of the 256 samples (2 052 allocations a round);
// on the scheme's scratch it adds none. The failed decodes cost 3 more on
// the grouped batch path; through the one RoundIngest, whose relocation
// writes into storage the decoder keeps, the round was its targets alone
// (1 measured), and with the targets in the scheme's buffer it is nothing
// (0 measured). The bound is that plus 3, headroom for a GC clearing the
// decoder scratch pools mid-measurement.
func TestAggregateFallbackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, net := allocScheme(t)
	ups := allocUploads(t, s, net, nil)
	// Over the budget and each lying differently, so no slot decodes.
	for id := 0; id < allocVehicles-4; id++ {
		for j := range ups[id] {
			ups[id][j] = ups[id][j]*2 + 7 + float64(id)
		}
	}
	round := func() {
		if _, err := s.Aggregate(ups); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		round()
	}
	avg := testing.AllocsPerRun(20, round)
	if s.DecodeFailures != s.Slots() {
		t.Fatalf("%d of %d slots undecodable, want all", s.DecodeFailures, s.Slots())
	}
	t.Logf("Aggregate's median fallback round allocates %.1f times", avg)
	if avg > 3 {
		t.Errorf("Aggregate's median fallback round allocates %.1f times, want <= 3", avg)
	}
}

const allocVehicles = 40

// allocScheme builds the pinned scheme (V=40, M=8, degree 2, S=32 slots)
// with a round begun, and the model it broadcast.
func allocScheme(t *testing.T) (*core.Scheme, *nn.Network) {
	t.Helper()
	oneProc(t)
	const m, degree, slots = 8, 2, 32
	act := approx.SymmetricSigmoid()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(act.F, -2, 2, degree)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.New(nn.Config{
		LayerSizes: []int{traffic.NumFeatures, 1},
		Activation: approx.FromPolynomial("ls", p),
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := traffic.Generate(traffic.GenConfig{Rows: m * slots, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewScheme(ds.Features(), core.SchemeConfig{
		NumVehicles: allocVehicles, NumBatches: m, Degree: degree, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginRound(net); err != nil {
		t.Fatal(err)
	}
	return s, net
}

// allocUploads returns one round's uploads with the given vehicles lying
// wholesale.
func allocUploads(t *testing.T, s *core.Scheme, net *nn.Network, malicious []int) [][]float64 {
	t.Helper()
	ups := make([][]float64, allocVehicles)
	for i := range ups {
		var err error
		if ups[i], err = s.Upload(i, net); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range malicious {
		for j := range ups[id] {
			ups[id][j] = ups[id][j]*2 + 7
		}
	}
	return ups
}

// TestAggregateStreamedAllocs extends the budget to the streamed path
// under adversaries at the full eq. 6 budget who upload first, so they
// would fill the decoder's Newton basis. With the same liars every round
// they are on record and ingested last: the streamed candidate is
// accepted. When the liar set flips every round each lie is a first lie:
// every slot is rejected and relocated by the one shared recovery. The
// scheme keeps one ingest and its decoder resets each round, Finalize and
// the recovery write into storage the decoder owns, and the recovery's
// locator decode runs on pooled scratch, and the targets go into a buffer
// the scheme keeps, so either round allocates only the list
// SuspectedMalicious builds (1 measured), plus the recovery's batch
// inversion (2 measured when the liars flip). The rounds were 160 and 90
// allocations before, then 3 and 2 while Aggregate allocated its targets.
func TestAggregateStreamedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, net := allocScheme(t)
	e := s.MaxMalicious()
	perm := rand.New(rand.NewSource(9)).Perm(allocVehicles)
	sets := [2][]int{perm[:e], perm[e : 2*e]}
	ups := [2][][]float64{allocUploads(t, s, net, sets[0]), allocUploads(t, s, net, sets[1])}
	round := func(which int) {
		sink := s.BeginIngest()
		for _, id := range perm { // either set arrives within the first 2E
			if err := sink.Add(id, ups[which][id]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.AggregateStreamed(sink, ups[which]); err != nil {
			t.Fatal(err)
		}
		if got := len(s.SuspectedMalicious()); got != e {
			t.Fatalf("flagged %d vehicles, want %d", got, e)
		}
	}
	for i := 0; i < 4; i++ { // warm the aggregate and decoder scratch
		round(i % 2)
	}
	next := 0
	flipping := testing.AllocsPerRun(30, func() {
		round(next % 2)
		next++
		if s.BatchFallbacks != s.Slots() {
			t.Fatalf("first-time liars in the basis, yet only %d of %d slots rejected", s.BatchFallbacks, s.Slots())
		}
	})
	round(0)
	persistent := testing.AllocsPerRun(30, func() {
		round(0)
		if s.BatchFallbacks != 0 {
			t.Fatalf("liars on record, yet %d slots rejected", s.BatchFallbacks)
		}
	})
	if flipping > 3 {
		t.Errorf("streamed round with first-time liars allocates %.1f times, want <= 3", flipping)
	}
	if persistent > 3 {
		t.Errorf("streamed round with persistent liars allocates %.1f times, want <= 3", persistent)
	}
}

// The pins below hold the vehicle side and the fit of a round to the
// allocation-free steady state (DESIGN.md §13.2), at the shape of the
// benchmark's train-v16-pipe workload: degree-1 activation, 16 features,
// 192 reference rows in M = 8 batches, 240 local rows x 5 epochs.

const (
	roundBatches  = 8
	roundRefRows  = 192
	roundVehicles = 16
)

// roundModel returns a single-layer model with the degree-1 least-squares
// activation and the fit's coefficients.
func roundModel(t *testing.T) (*nn.Network, []float64) {
	t.Helper()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(approx.SymmetricSigmoid().F, -2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.New(nn.Config{
		LayerSizes: []int{traffic.NumFeatures, 1},
		Activation: approx.FromPolynomial("ls", p),
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, p
}

func roundData(t *testing.T, rows int, seed int64) *traffic.Dataset {
	t.Helper()
	ds, err := traffic.Generate(traffic.GenConfig{Rows: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestTrainSGDAllocs: eq. 1 local SGD was 6 001 allocations a call (one
// shuffle order plus five slices per sample step); on the network's own
// scratch a call on a network that has trained before makes none, and
// the first call on a fresh clone builds the scratch in 7.
func TestTrainSGDAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	net, _ := roundModel(t)
	samples := roundData(t, 240, 11).Samples
	rng := rand.New(rand.NewSource(2))
	train := func(n *nn.Network) {
		if _, err := n.TrainSGD(samples, 0.2, 5, rng); err != nil {
			t.Fatal(err)
		}
	}
	train(net)
	if avg := testing.AllocsPerRun(5, func() { train(net) }); avg != 0 {
		t.Errorf("TrainSGD on a warm network allocates %.1f times per call, want 0", avg)
	}
	cold := testing.AllocsPerRun(5, func() { train(net.Clone()) })
	clone := testing.AllocsPerRun(5, func() { net.Clone() })
	if cold-clone > 8 {
		t.Errorf("first TrainSGD on a clone allocates %.1f times beyond the clone's %.1f, want <= 8", cold-clone, clone)
	}
}

// TestEstimateClampedAllocs: the learning-channel estimate (two slices per
// reference row through Forward before) allocates nothing on the
// single-layer shape.
func TestEstimateClampedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	net, _ := roundModel(t)
	x := roundData(t, 1, 12).Features()[0]
	avg := testing.AllocsPerRun(100, func() {
		if _, err := net.EstimateClamped(x); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("EstimateClamped allocates %.1f times per call, want 0", avg)
	}
}

// TestUploadAllocs: a vehicle's BeginRound + Upload was 399 allocations at
// 192 reference rows; now BeginRound reads the live parameters, the
// learning channel is one batch estimate, and the share writes the upload
// vector into a buffer it keeps, so a vehicle's round allocates nothing.
func TestUploadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	net, _ := roundModel(t)
	s, err := core.NewShare(roundData(t, roundRefRows, 13).Features(), core.SchemeConfig{
		NumVehicles: roundVehicles, NumBatches: roundBatches, Degree: 1, Seed: 3,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		if err := s.BeginRound(net); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Upload(net); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Errorf("BeginRound + Share.Upload allocate %.1f times per round, want 0", avg)
	}
}

// TestNewShareAllocs: a vehicle's set-up copies the reference set into one
// block and quantises every verification slot through one M×F scratch, so
// how many allocations NewShare makes does not grow with the reference
// set (33 at V = 16, M = 8). A copy per reference row, a vector per
// quantised row and a batch per slot made it 165 at 64 rows and 1 661 at
// 768. One of the 33 is the Lagrange coder's pooled accumulator, which a
// collection empties: testing.AllocsPerRun, with collections free to run
// between calls, read 32 on some calls and 33 on others, so each call is
// measured on its own after a forced collection, with the collector off.
func TestNewShareAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := core.SchemeConfig{NumVehicles: roundVehicles, NumBatches: roundBatches, Degree: 1, Seed: 3}
	allocs := func(rows int) (mean float64, counts []uint64, goroutines int) {
		ref := roundData(t, rows, 15).Features()
		counts, goroutines = mallocsAfterGC(10, func() {
			if _, err := core.NewShare(ref, cfg, 5); err != nil {
				t.Fatal(err)
			}
		})
		var total uint64
		for _, c := range counts {
			total += c
		}
		return float64(total) / float64(len(counts)), counts, goroutines
	}
	small, smallCounts, smallG := allocs(64)
	large, largeCounts, largeG := allocs(768)
	t.Logf("NewShare allocates %.1f times at 64 reference rows, %.1f at 768 (%d and %d goroutines at entry)", small, large, smallG, largeG)
	if large != small {
		t.Errorf("NewShare allocates %.1f times at 768 reference rows, %.1f at 64: want equal\n"+
			"per call at 64 rows %v (%d goroutines at entry), at 768 rows %v (%d goroutines at entry)",
			large, small, smallCounts, smallG, largeCounts, largeG)
	}
}

// oneProc holds GOMAXPROCS at 1 for the rest of the test, construction
// and measurement alike, so every pool in the program runs inline.
func oneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// mallocsAfterGC is testing.AllocsPerRun with every call starting from a
// fresh collection and none during it, so allocations that refill a pool
// a collection emptied count on every call instead of on some. It returns
// each call's count, and how many goroutines were running when it began:
// one still winding down from an earlier test could allocate in the
// measured window.
func mallocsAfterGC(runs int, f func()) (counts []uint64, goroutines int) {
	goroutines = runtime.NumGoroutine()
	counts = make([]uint64, runs)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	for i := range counts {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		counts[i] = after.Mallocs - before.Mallocs
	}
	return counts, goroutines
}

// TestDistillAllocs: the fusion centre's closed-form fit was 398
// allocations at 192 rows (two per row in Loss -> Forward); what is left
// are its per-call matrices (design matrix, normal equations, solve).
func TestDistillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	net, _ := roundModel(t)
	ds := roundData(t, roundRefRows, 14)
	samples := make([]nn.Sample, roundRefRows)
	for i, x := range ds.Features() {
		samples[i] = nn.Sample{X: x, Y: ds.Slowness[i]}
	}
	cfg := fl.Config{InputSize: traffic.NumFeatures, LocalEpochs: 1, LocalRate: 0.2,
		DistillEpochs: 20, DistillRate: 0.2, ServerStep: 0.5}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := fl.Distill(net, cfg, samples); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 24 {
		t.Errorf("Distill allocates %.1f times per call, want <= 24", avg)
	}
}

// TestDistillerFitAllocs: the fit the fusion centre runs every round — a
// Distiller held for the session, the kept rows those of the last round —
// replays its factorisation and allocates nothing (the one-shot Distill
// above builds the design matrix and normal equations every call).
func TestDistillerFitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	net, _ := roundModel(t)
	ds := roundData(t, roundRefRows, 14)
	cfg := fl.Config{InputSize: traffic.NumFeatures, LocalEpochs: 1, LocalRate: 0.2,
		DistillEpochs: 20, DistillRate: 0.2, ServerStep: 0.5}
	d, err := fl.NewDistiller(cfg, ds.Features())
	if err != nil {
		t.Fatal(err)
	}
	fit := func() {
		if err := d.Fit(net, ds.Slowness); err != nil {
			t.Fatal(err)
		}
	}
	fit()
	if avg := testing.AllocsPerRun(50, fit); avg != 0 {
		t.Errorf("a steady-state Distiller.Fit allocates %.1f times per call, want 0", avg)
	}
}

// TestFrameAllocs: one binary Upload frame written and read over a reused
// TCP connection was 7 allocations (body, escaping header, read header,
// read body, and the message's three parts), then 4 with per-connection
// frame buffers. The receiving connection now decodes the message and its
// values into its own inbox, valid until its next Recv, so none are left.
func TestFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	a, b := tcpPair(t)
	msg := &protocol.Message{Upload: &protocol.Upload{Round: 7, VehicleID: 3, Values: make([]float64, 2*roundRefRows/roundBatches+roundRefRows)}}
	frame := func() {
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil || got.Upload == nil || len(got.Upload.Values) != len(msg.Upload.Values) {
			t.Fatalf("received %+v, %v", got, err)
		}
	}
	frame()
	if avg := testing.AllocsPerRun(50, frame); avg != 0 {
		t.Errorf("an Upload frame's write + read allocate %.1f times, want 0", avg)
	}
}

// TestVaryingUploadAllocs: an upload's frame is as long as its
// learning-channel values pack — a byte of class map per four, and 8
// bytes for each one that is neither +0 nor 1.0 — so its size moves from
// round to round. A variable-size upload encoding whose buffers followed
// the frame in hand once regrew them inside the timed rounds
// (allocs_per_round 1.004 → 1.16). Both ends of a TCP connection size
// theirs to the shape's dense bound at its first upload instead: after
// it, 199 more uploads of the same shape, carrying 0 to all of their 64
// tail values as literals in a seeded order, each Send and Recv without
// allocating.
func TestVaryingUploadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	a, b := tcpPair(t)
	const words, tail, uploads = 16, 64, 200
	rng := rand.New(rand.NewSource(50))
	msgs := make([]*protocol.Message, uploads)
	for k := range msgs {
		values := make([]float64, words+tail)
		for i := range values {
			values[i] = float64(i % 2) // words, then a tail of +0 and 1.0
		}
		lits := rng.Intn(tail + 1)
		if k == 0 {
			lits = 0 // the smallest frame of the shape comes first
		}
		for _, i := range rng.Perm(tail)[:lits] {
			values[words+i] = rng.Float64()
		}
		msgs[k] = &protocol.Message{Upload: &protocol.Upload{Round: k + 1, VehicleID: 3, Values: values, Words: words}}
	}
	k := 0
	upload := func() {
		msg := msgs[k]
		k++
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
		sent := msg.Upload
		m, err := b.Recv()
		if err != nil || m.Upload == nil || m.Upload.Round != sent.Round || len(m.Upload.Values) != len(sent.Values) {
			t.Fatalf("upload %d received as %+v, %v", k, m, err)
		}
		for i, v := range m.Upload.Values {
			if math.Float64bits(v) != math.Float64bits(sent.Values[i]) {
				t.Fatalf("upload %d value %d arrived as %v, sent %v", k, i, v, sent.Values[i])
			}
		}
	}
	upload()
	counts, _ := mallocsAfterGC(uploads-1, upload)
	for i, n := range counts {
		if n != 0 {
			t.Errorf("upload %d: Send + Recv allocated %d times, want 0", i+2, n)
		}
	}
}

// tcpPair connects two TCP transport connections over loopback, closed
// when the test ends.
func tcpPair(t *testing.T) (a, b transport.Conn) {
	t.Helper()
	ln, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	if a, err = transport.DialTCP(ln.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if b, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	transport.SetWireVersion(a, protocol.Version)
	return a, b
}

// TestRoundAllocs pins the whole round: a V = 16 session over pipes —
// fusion centre and vehicles in this process, as the benchmark runs them —
// made ~103 k allocations a round, then ~125, then 1 (the targets
// Aggregate returned, now a buffer the scheme keeps). Under
// transport.Conn's ownership rule the messages, upload vectors, decode
// state and targets are reused every round, which leaves none. The same
// holds for a budget-closed round: with two vehicles always a round late
// (lateConn) and a wait budget that closes each round without them,
// relisting the vehicles left behind reuses the live status's list (it
// allocated twice a round before). Measured as the Mallocs difference
// between a long and a short session of the same inputs, so set-up
// cancels; the difference reads 0.0 a round at GOMAXPROCS 1 and read
// −1.1–1.9 with the vehicles spread over every P, the runtime's own
// bookkeeping of two sessions' goroutines spread over 40 rounds, so the
// bound adds a margin of about 2 to that. Each session starts from a forced
// collection and runs with the collector off, so a pool a collection
// empties is refilled in neither (a refill in the short session alone once
// made the difference negative). The test runs at GOMAXPROCS 1, as the
// benchmark does on a 2-vCPU host, so the scheme's pools run inline and
// their goroutines do not count.
func TestRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	oneProc(t)
	_, coeffs := roundModel(t)
	refX := roundData(t, roundRefRows, 15).Features()
	parts, err := roundData(t, roundVehicles*240, 16).PartitionIID(roundVehicles, 17)
	if err != nil {
		t.Fatal(err)
	}
	// late is how many vehicles run a round late; the wait budget closes
	// a round once every punctual vehicle has uploaded.
	session := func(rounds, late int) uint64 {
		budget := 0 // wait for all
		if late > 0 {
			budget = roundVehicles - late - roundBatches // K = M at degree 1
		}
		srv, err := node.NewServer(node.ServerConfig{
			FL: fl.Config{InputSize: traffic.NumFeatures, LocalEpochs: 5, LocalRate: 0.2,
				DistillEpochs: 20, DistillRate: 0.2, ServerStep: 0.5, Seed: 18},
			Scheme:           core.SchemeConfig{NumVehicles: roundVehicles, NumBatches: roundBatches, Degree: 1, Seed: 19},
			RefX:             refX,
			ActivationCoeffs: coeffs,
			Rounds:           rounds,
			RoundTimeout:     30 * time.Second,
			WaitBudget:       budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients := make([]node.ClientConfig, roundVehicles)
		for id := range clients {
			clients[id] = node.ClientConfig{VehicleID: id, Data: parts[id], Seed: int64(100 + id)}
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		report := runPipeSession(t, srv, clients, late)
		runtime.ReadMemStats(&after)
		if report.Rounds != rounds || report.DegradedRounds != 0 || report.Stragglers != late*rounds {
			t.Fatalf("session of %d rounds, %d late: %+v", rounds, late, report)
		}
		return after.Mallocs - before.Mallocs
	}
	const short, long = 5, 45
	for _, late := range []int{0, 2} {
		session(short, late) // warm pools and lazily built state
		perRound := (float64(session(long, late)) - float64(session(short, late))) / (long - short)
		if perRound > 4 {
			t.Errorf("a V=%d pipe round with %d late vehicles allocates %.1f times, want <= 4", roundVehicles, late, perRound)
		}
		t.Logf("%d late vehicles: %.1f allocations per round", late, perRound)
	}
}

// TestRecordAllocs holds the round records at fleet scale: a V=256 pipe
// session allocates within TestRoundAllocs' per-round pin however many
// rounds it runs, because every record's verdicts are a V-byte window on
// one slab allocated at the handshake — one byte per vehicle-round.
func TestRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	oneProc(t)
	const vehicles, rows = 256, 24
	_, coeffs := roundModel(t)
	refX := roundData(t, roundRefRows, 15).Features()
	parts, err := roundData(t, vehicles*rows, 16).PartitionIID(vehicles, 17)
	if err != nil {
		t.Fatal(err)
	}
	session := func(rounds int) (uint64, *node.Report) {
		srv, err := node.NewServer(node.ServerConfig{
			FL: fl.Config{InputSize: traffic.NumFeatures, LocalEpochs: 1, LocalRate: 0.2,
				DistillEpochs: 20, DistillRate: 0.2, ServerStep: 0.5, Seed: 18},
			Scheme:           core.SchemeConfig{NumVehicles: vehicles, NumBatches: roundBatches, Degree: 1, Seed: 19},
			RefX:             refX,
			ActivationCoeffs: coeffs,
			Rounds:           rounds,
			RoundTimeout:     30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients := make([]node.ClientConfig, vehicles)
		for id := range clients {
			clients[id] = node.ClientConfig{VehicleID: id, Data: parts[id], Seed: int64(100 + id)}
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		report := runPipeSession(t, srv, clients, 0)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, report
	}
	const short, long = 5, 100
	session(short) // warm pools and lazily built state
	shortAllocs, _ := session(short)
	longAllocs, report := session(long)
	perRound := (float64(longAllocs) - float64(shortAllocs)) / (long - short)
	if perRound > 4 {
		t.Errorf("a V=%d pipe round allocates %.1f times, want <= 4", vehicles, perRound)
	}
	t.Logf("V=%d: %.1f allocations per round", vehicles, perRound)
	if len(report.Records) != long {
		t.Fatalf("%d round records for %d rounds", len(report.Records), long)
	}
	slab := unsafe.SliceData(report.Records[0].Verdicts)
	for r, rec := range report.Records {
		vs := rec.Verdicts
		if len(vs) != vehicles || cap(vs) != vehicles || unsafe.SliceData(vs) != (*fl.Verdict)(unsafe.Add(unsafe.Pointer(slab), r*vehicles)) {
			t.Fatalf("round %d's verdicts are not bytes [%d, %d) of one slab", rec.Round, r*vehicles, (r+1)*vehicles)
		}
	}
}

// runPipeSession runs srv's whole session against one in-process vehicle
// per client config, each over its own pipe — the way the benchmark runs
// a session — the last late of them behind a lateConn, and returns the
// report once every vehicle has returned.
func runPipeSession(t *testing.T, srv *node.Server, clients []node.ClientConfig, late int) *node.Report {
	t.Helper()
	fusion := make([]transport.Conn, len(clients))
	var vehicles sync.WaitGroup
	for id, cfg := range clients {
		serverEnd, vehicleEnd := transport.Pipe()
		fusion[id] = serverEnd
		if id >= len(clients)-late {
			vehicleEnd = &lateConn{Conn: vehicleEnd}
		}
		vehicles.Add(1)
		go func() {
			defer vehicles.Done()
			if err := node.RunVehicle(vehicleEnd, cfg); err != nil {
				t.Errorf("vehicle %d: %v", cfg.VehicleID, err)
			}
		}()
	}
	report, err := srv.Run(fusion)
	vehicles.Wait()
	if err != nil {
		t.Fatalf("session: %+v, %v", report, err)
	}
	return report
}

// lateConn holds each upload back until the next broadcast arrives, so
// its vehicle is a round late every round and a wait budget closes each
// round without it. It keeps the upload in storage of its own, reused
// from round to round, which leaves the vehicle's message free once Send
// returns.
type lateConn struct {
	transport.Conn
	up      protocol.Upload
	msg     protocol.Message
	pending bool
}

func (c *lateConn) Send(m *protocol.Message) error {
	if m.Upload == nil {
		return c.Conn.Send(m)
	}
	vals := append(c.up.Values[:0], m.Upload.Values...)
	c.up = *m.Upload
	c.up.Values = vals
	c.msg = protocol.Message{Upload: &c.up}
	c.pending = true
	return nil
}

func (c *lateConn) Recv() (*protocol.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Broadcast != nil && c.pending {
		c.pending = false
		if err := c.Conn.Send(&c.msg); err != nil {
			return nil, err
		}
	}
	return m, err
}
