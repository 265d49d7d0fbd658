package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/fl"
	"repro/internal/lagrange"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/poly"
	"repro/internal/protocol"
	"repro/internal/reedsolomon"
	"repro/internal/transport"
)

// ledger maps a per-layer metric name to its value.
type ledger map[string]float64

// replayer times one layer's public function at a time on the inputs of
// a captured round: up to maxCalls calls or until the per-kernel budget
// is spent, at least minCalls, reporting the median.
type replayer struct {
	clock  obs.Clock
	budget time.Duration
}

const (
	maxCalls = 200
	minCalls = 5
)

// run times call; prep (optional) restores per-call state and is not
// timed. It returns the median duration and the mean allocation count of
// call alone.
func (r *replayer) run(prep func() error, call func() error) (time.Duration, float64, error) {
	var ms runtime.MemStats
	var durs []float64
	var mallocs uint64
	began := r.clock.Now()
	for n := 0; n < maxCalls && (n < minCalls || r.clock.Now()-began < r.budget); n++ {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, 0, err
			}
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := r.clock.Now()
		err := call()
		d := r.clock.Now() - t0
		runtime.ReadMemStats(&ms)
		if err != nil {
			return 0, 0, err
		}
		mallocs += ms.Mallocs - before
		durs = append(durs, float64(d))
	}
	return time.Duration(median(durs)), float64(mallocs) / float64(len(durs)), nil
}

// replayLayers feeds the captured round through each layer's public
// functions in isolation and fills the per-layer entries of out.
func replayLayers(res *sessionResult, seed int64, budget time.Duration, out ledger) error {
	in, rec := res.in, res.rec
	if rec.broadcast == nil || len(rec.arrival) == 0 {
		return fmt.Errorf("%s: traced session captured no round", in.w.name)
	}
	r := &replayer{clock: obs.NewRealClock(), budget: budget}
	workers := parallel.Workers(0)
	features := in.flCfg.InputSize

	shared, err := nn.New(nn.Config{
		LayerSizes: []int{features, 1},
		Activation: approx.FromPolynomial("wire-poly", poly.NewReal(in.activation...)),
		Seed:       in.flCfg.Seed,
	})
	if err != nil {
		return err
	}
	if err := shared.SetParams(rec.broadcast); err != nil {
		return err
	}

	// nn: one vehicle's local training at the workload's epochs.
	first := rec.arrival[0]
	rng := rand.New(rand.NewSource(seed))
	var local *nn.Network
	d, allocs, err := r.run(
		func() error { local = shared.Clone(); return nil },
		func() error {
			_, err := local.TrainSGD(in.parts[first], in.flCfg.LocalRate, in.flCfg.LocalEpochs, rng)
			return err
		})
	if err != nil {
		return err
	}
	out["nn.train_ms"], out["nn.train_allocs"] = msOf(d), allocs

	// core, vehicle side: scheme construction and one upload.
	var scheme *core.Scheme
	d, _, err = r.run(nil, func() error {
		scheme, err = core.NewScheme(in.refX, in.scheme)
		return err
	})
	if err != nil {
		return err
	}
	out["core.newscheme_ms"] = msOf(d)
	d, allocs, err = r.run(nil, func() error {
		if err := scheme.BeginRound(shared.Clone()); err != nil {
			return err
		}
		_, err := scheme.Upload(first, local)
		return err
	})
	if err != nil {
		return err
	}
	out["core.upload_ms"], out["core.upload_allocs"] = msOf(d), allocs

	// core, fusion side, on the captured uploads in their arrival order.
	ingest := func() (fl.UploadSink, error) {
		sink := scheme.BeginIngest()
		for _, id := range rec.arrival {
			if err := sink.Add(id, rec.uploads[id]); err != nil {
				return nil, err
			}
		}
		return sink, nil
	}
	d, _, err = r.run(nil, func() error { _, err := ingest(); return err })
	if err != nil {
		return err
	}
	out["core.ingest_us_per_upload"] = usOf(d) / float64(len(rec.arrival))
	var sink fl.UploadSink
	d, _, err = r.run(
		func() error { sink, err = ingest(); return err },
		func() error { _, err := scheme.AggregateStreamed(sink, rec.uploads); return err })
	if err != nil {
		return err
	}
	out["core.aggregate_streamed_ms"] = msOf(d)
	var targets []float64
	d, allocs, err = r.run(nil, func() error {
		targets, err = scheme.Aggregate(rec.uploads)
		return err
	})
	if err != nil {
		return err
	}
	out["core.aggregate_ms"], out["core.aggregate_allocs"] = msOf(d), allocs

	// fl: the fusion centre's fit at the workload's reference size.
	samples := make([]nn.Sample, 0, len(targets))
	for j, t := range targets {
		if !fl.IsDropped(t) {
			samples = append(samples, nn.Sample{X: in.refX[j], Y: min(1, max(0, t))})
		}
	}
	var fit *nn.Network
	d, allocs, err = r.run(
		func() error { fit = shared.Clone(); return nil },
		func() error { _, err := fl.Distill(fit, in.flCfg, samples); return err })
	if err != nil {
		return err
	}
	out["fl.distill_ms"], out["fl.distill_allocs"] = msOf(d), allocs

	if err := replayCoding(r, res, seed, workers, out); err != nil {
		return err
	}
	if err := replayWire(r, res, out); err != nil {
		return err
	}
	return nil
}

// replayCoding measures reedsolomon, lagrange and field on synthetic
// codewords of the captured round's shape: as many points as admitted
// uploads, K = the scheme's threshold, one word per verification slot,
// errors planted where the workload's liars sit, ingested in the
// captured arrival order.
func replayCoding(r *replayer, res *sessionResult, seed int64, workers int, out ledger) error {
	in, rec := res.in, res.rec
	k := in.scheme.Degree*(in.scheme.NumBatches-1) + 1
	slots := len(in.refX) / in.scheme.NumBatches
	src := field.NewSeededSource(seed)

	present := append([]int(nil), rec.arrival...)
	sort.Ints(present)
	posOf := make(map[int]int, len(present))
	for p, id := range present {
		posOf[id] = p
	}
	n := len(present)
	nodes := field.RandDistinct(src, k, nil)
	points := field.RandDistinct(src, n, nodes)
	coder, err := lagrange.NewCoder(nodes, points)
	if err != nil {
		return err
	}
	messages := make([][]field.Element, k)
	for i := range messages {
		messages[i] = make([]field.Element, slots)
		for s := range messages[i] {
			messages[i][s] = field.Rand(src)
		}
	}
	symbols, err := coder.EncodeVectors(messages) // [position][slot]
	if err != nil {
		return err
	}
	lie := field.Rand(src) // a liar reports the same constant in every slot
	planted := 0
	for _, id := range in.planted {
		if p, ok := posOf[id]; ok {
			planted++
			for s := range symbols[p] {
				symbols[p][s] = lie
			}
		}
	}
	dec, err := reedsolomon.NewDecoder(points, k)
	if err != nil {
		return err
	}
	ingest := func() (*reedsolomon.IncrementalDecoder, error) {
		inc := dec.NewIncremental(slots)
		for _, id := range rec.arrival {
			if err := inc.Ingest(posOf[id], symbols[posOf[id]]); err != nil {
				return nil, err
			}
		}
		return inc, nil
	}
	d, _, err := r.run(nil, func() error { _, err := ingest(); return err })
	if err != nil {
		return err
	}
	out["reedsolomon.ingest_us_per_arrival"] = usOf(d) / float64(n)

	checkDecode := func(results []*reedsolomon.Result, errs []error) error {
		for s := range results {
			if errs[s] != nil {
				return fmt.Errorf("reedsolomon replay slot %d: %w", s, errs[s])
			}
			if len(results[s].ErrorPositions) != planted {
				return fmt.Errorf("reedsolomon replay slot %d: located %d errors, planted %d", s, len(results[s].ErrorPositions), planted)
			}
		}
		return nil
	}
	var inc *reedsolomon.IncrementalDecoder
	var stats reedsolomon.BatchStats
	d, _, err = r.run(
		func() error { inc, err = ingest(); return err },
		func() error {
			results, errs, st := inc.Finalize(workers)
			stats = st
			return checkDecode(results, errs)
		})
	if err != nil {
		return err
	}
	out["reedsolomon.finalize_ms"] = msOf(d)
	out["reedsolomon.fallback_slot_frac"] = float64(stats.Fallbacks) / float64(slots)

	words := make([][]field.Element, slots)
	for s := range words {
		words[s] = make([]field.Element, n)
		for p := range symbols {
			words[s][p] = symbols[p][s]
		}
	}
	d, allocs, err := r.run(nil, func() error {
		results, errs, _ := dec.DecodeBatch(words, src, workers)
		return checkDecode(results, errs)
	})
	if err != nil {
		return err
	}
	out["reedsolomon.decodebatch_ms"], out["reedsolomon.decode_allocs"] = msOf(d), allocs

	// lagrange: the per-slot encode NewScheme runs, at (M, V, features).
	m, v, features := in.scheme.NumBatches, in.scheme.NumVehicles, in.flCfg.InputSize
	encNodes := field.RandDistinct(src, m, nil)
	enc, err := lagrange.NewCoder(encNodes, field.RandDistinct(src, v, encNodes))
	if err != nil {
		return err
	}
	rows := make([][]field.Element, m)
	for i := range rows {
		rows[i] = randElements(src, features)
	}
	d, allocs, err = r.run(nil, func() error { _, err := enc.EncodeVectors(rows); return err })
	if err != nil {
		return err
	}
	out["lagrange.encode_ms"], out["lagrange.encode_allocs"] = msOf(d), allocs

	// field: the two kernels everything above bottoms out in.
	const kernelLen = 4096
	a, b := randElements(src, kernelLen), randElements(src, kernelLen)
	var sinkElem field.Element
	d, _, err = r.run(nil, func() error { sinkElem = field.DotAcc(a, b); return nil })
	if err != nil {
		return err
	}
	out["field.dotacc_ns_per_elem"] = float64(d) / kernelLen
	c := field.RandNonZero(src).Add(sinkElem)
	d, _, err = r.run(nil, func() error { field.MulAddVec(a, c, b); return nil })
	if err != nil {
		return err
	}
	out["field.muladdvec_ns_per_elem"] = float64(d) / kernelLen
	return nil
}

func randElements(src field.Source, n int) []field.Element {
	out := make([]field.Element, n)
	for i := range out {
		out[i] = field.Rand(src)
	}
	return out
}

// replayWire measures protocol on the captured frames, in the binary
// framing sessions negotiate, and transport by ping-ponging the captured
// Upload over a fresh pair of each fabric.
func replayWire(r *replayer, res *sessionResult, out ledger) error {
	rec := res.rec
	first := rec.arrival[0]
	frames := []struct {
		kind string
		msg  *protocol.Message
	}{
		{"broadcast", &protocol.Message{Broadcast: &protocol.Broadcast{Round: rec.captureRound, Params: rec.broadcast}}},
		{"upload", &protocol.Message{Upload: &protocol.Upload{Round: rec.captureRound, VehicleID: first, Values: rec.uploads[first]}}},
	}
	var frameAllocs float64
	for _, f := range frames {
		var buf bytes.Buffer
		d, wAllocs, err := r.run(
			func() error { buf.Reset(); return nil },
			func() error { return protocol.WriteVersion(&buf, f.msg, protocol.Version) })
		if err != nil {
			return err
		}
		out["protocol.write_us_"+f.kind] = usOf(d)
		encoded := append([]byte(nil), buf.Bytes()...)
		// Sized the way wire_bytes_per_round counts, so the two reconcile.
		out["transport.bytes_per_"+f.kind] = float64(protocol.EncodedSizeVersion(f.msg, protocol.Version))
		var rd *bytes.Reader
		d, rAllocs, err := r.run(
			func() error { rd = bytes.NewReader(encoded); return nil },
			func() error { _, err := protocol.Read(rd); return err })
		if err != nil {
			return err
		}
		out["protocol.read_us_"+f.kind] = usOf(d)
		frameAllocs += wAllocs + rAllocs
	}
	out["protocol.allocs_per_frame"] = frameAllocs / float64(len(frames))

	upload := frames[1].msg
	a, b := transport.Pipe()
	rtt, err := pingPong(r, a, b, upload)
	if err != nil {
		return err
	}
	out["transport.pipe_rtt_us"] = usOf(rtt)

	ln, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	a, err = transport.DialTCP(ln.Addr())
	if err != nil {
		_ = ln.Close()
		return err
	}
	b, err = ln.Accept()
	_ = ln.Close()
	if err != nil {
		_ = a.Close()
		return err
	}
	transport.SetWireVersion(a, protocol.Version)
	transport.SetWireVersion(b, protocol.Version)
	rtt, err = pingPong(r, a, b, upload)
	if err != nil {
		return err
	}
	out["transport.tcp_rtt_us"] = usOf(rtt)
	return nil
}

// pingPong times msg going a -> b and coming back, with b echoing on its
// own goroutine; it closes both ends before returning.
func pingPong(r *replayer, a, b transport.Conn, msg *protocol.Message) (time.Duration, error) {
	var echo parallel.Group
	echo.Go(func() error {
		for {
			m, err := b.Recv()
			if err != nil {
				return nil // a closed: the measurement is over
			}
			if err := b.Send(m); err != nil {
				return err
			}
			if err := transport.Flush(b); err != nil {
				return err
			}
		}
	})
	d, _, err := r.run(nil, func() error {
		if err := a.Send(msg); err != nil {
			return err
		}
		if err := transport.Flush(a); err != nil {
			return err
		}
		_, err := a.Recv()
		return err
	})
	_ = a.Close()
	_ = b.Close()
	if echoErr := echo.Wait(); err == nil {
		err = echoErr
	}
	return d, err
}
