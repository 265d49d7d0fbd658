// Package core implements L-CoFL, the paper's primary contribution: the
// first Lagrange-coded federated-learning model (paper §IV).
//
// Scheme is the FL pipeline plugged into package fl, and the fusion
// centre's side of a distributed session; Share (share.go) is a vehicle's
// side, holding that vehicle's encoded share and nothing that grows with
// V. Every global round runs the paper's Steps 1–3 as a coded VERIFICATION
// channel plus a learning channel:
//
//   - Step 1: the fusion centre partitions its reference feature set into
//     M batches, quantises it into GF(p) (package fixedpoint), and fixes
//     encoding elements {ℓ_m} (batch nodes) and {ρ_i} (one point per
//     vehicle) in the field.
//   - Step 2: each vehicle holds its Lagrange-encoded share X̃_i = H(ρ_i)
//     (eqs. 3–4, 8) and evaluates the broadcast shared model — identical
//     at every honest vehicle, in exact fixed-point field arithmetic — on
//     its encoded slots, uploading those estimation symbols together with
//     its locally-trained model's estimations of the raw reference
//     samples.
//   - Step 3: honest verification symbols are exact evaluations of ONE
//     composed polynomial C(H(z)) of degree deg(C)·(M−1) over GF(p), so
//     the Gao Reed–Solomon decoder (equivalent to the Berlekamp–Welch
//     decoder the paper names) reconstructs it and
//     pinpoints every erroneous upload whenever
//     (M−1)·deg(C) + 2E + 1 ≤ V (eq. 6) — with equality, no thresholds,
//     and bit-exact honesty checks. Vehicles caught lying are excluded,
//     and the learning estimations of the verified vehicles are averaged
//     into the distillation targets: the paper's "inaccurate estimation
//     results produced with the system noises can be removed".
//
// DESIGN.md §1 records why verification-then-aggregate is the coherent
// reading: Reed–Solomon decoding requires honest workers to evaluate one
// common polynomial, which locally-trained (heterogeneous) models do not
// provide, but the broadcast shared model does — exactly and at every
// vehicle. A vehicle that computes the verification slots honestly but
// lies only on the learning channel evades this defence; that is the
// data-poisoning problem, outside the paper's "erroneous results" threat
// model (its malicious vehicles corrupt what they report wholesale).
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/field"
	"repro/internal/fl"
	"repro/internal/lagrange"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/reedsolomon"
)

// SchemeConfig parameterises the L-CoFL scheme.
type SchemeConfig struct {
	// NumVehicles is V; vehicle IDs 0..V-1 map to points ρ_1..ρ_V.
	NumVehicles int
	// NumBatches is M, the number of reference batches (the paper uses
	// the feature count, 16).
	NumBatches int
	// Degree is the end-to-end polynomial degree of the estimation in its
	// input — the approximation degree d for the paper's single-
	// nonlinear-layer model. It determines the recover threshold
	// K = d·(M−1) + 1 of eq. 6.
	Degree int
	// Seed drives the random selection of the field encoding elements.
	Seed int64
	// Obs attaches the observability layer (metrics + tracing) to the
	// scheme, its Lagrange coder and its Reed–Solomon decoders. Nil (the
	// default) disables all instrumentation at near-zero cost.
	Obs *obs.Obs
}

// Scheme is the L-CoFL upload/aggregate strategy; it implements fl.Scheme.
type Scheme struct {
	evaluator // reference set, codec, quantised model: shared with Share
	cfg       SchemeConfig
	coder     *lagrange.Coder
	shares    [][][]field.Element // [V][S][F] encoded verification shares
	k         int                 // recover threshold K = Degree·(M-1) + 1
	dec       *reedsolomon.Decoder

	// aggVals is the median fallback's scratch: one sample's present
	// values, reused round over round.
	aggVals []float64
	// out holds the last aggregation's targets, one per reference row;
	// every aggregation rewrites it.
	out []float64

	// ingest is the scheme's one round decode state, reset by every
	// BeginIngest and by every Aggregate (stream.go).
	ingest *RoundIngest

	// DecodeFailures counts verification slots whose decode exceeded the
	// error budget in the last Aggregate.
	DecodeFailures int
	// DetectedMalicious holds the last Aggregate's per-vehicle verdict: one
	// count per verification slot that located the vehicle, plus one when
	// a learning value it sent was outside [0, 1]. Any count excludes the
	// vehicle. Aggregate rewrites it in place: copy it to keep a round's
	// counts past the next Aggregate.
	DetectedMalicious []int
	// BatchRecovered and BatchFallbacks count how the last Aggregate's
	// verification decode split: slots whose streamed candidate verified
	// against slots handed to the shared error location
	// (reedsolomon.BatchStats). They feed the core.aggregate span; the
	// cumulative totals are the decoder's rs.batch.* counters.
	BatchRecovered int
	BatchFallbacks int

	// Observability handles, resolved once in NewScheme. The cumulative
	// counters core.decode_failures / core.flagged_vehicles mirror the
	// per-round report above: after every Aggregate the round's deltas are
	// added, so counter totals equal the sum of the field values across
	// rounds (asserted in obs_test.go).
	obs             *obs.Obs
	cDecodeFailures *obs.Counter
	cAggregates     *obs.Counter
	cFlagged        *obs.Counter
	hAggregateNs    *obs.Histogram
	spanParent      obs.SpanContext
}

// SetSpanParent links the next Aggregate's core.aggregate span under the
// given parent — the round span of whichever engine drives the scheme —
// so a merged timeline can nest the decode inside its round. The zero
// context detaches. Call between rounds, from the goroutine that calls
// Aggregate (the field is unsynchronised like the per-round report
// fields).
func (s *Scheme) SetSpanParent(ctx obs.SpanContext) { s.spanParent = ctx }

// NewScheme quantises and Lagrange-encodes the reference features at the
// degree's resolution, fracBits(cfg.Degree), and fixes the encoding
// elements. len(refX) must be a positive multiple of M, and every feature
// must fit the fixed-point range (features normalised to [-1, 1] always
// do — the eq. 9 precondition). The per-slot encode here and the
// relocation of rejected slots in Aggregate fan out across GOMAXPROCS
// goroutines; slots are independent and their outcomes merge in slot
// order, so results are bit-identical at any GOMAXPROCS.
func NewScheme(refX [][]float64, cfg SchemeConfig) (*Scheme, error) {
	return newScheme(refX, cfg, fracBits(cfg.Degree))
}

// newScheme is NewScheme at frac fractional bits.
func newScheme(refX [][]float64, cfg SchemeConfig, frac uint) (*Scheme, error) {
	ev, k, err := newEvaluator(refX, cfg, frac)
	if err != nil {
		return nil, err
	}
	nodes, points := encodingElements(rand.New(rand.NewSource(cfg.Seed)), cfg.NumBatches, cfg.NumVehicles)
	coder, err := lagrange.NewCoder(nodes, points)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Attach obs before the one-time reference-share encode below so the
	// construction cost shows up in lagrange.encode_* too.
	coder.SetObs(cfg.Obs)

	// Quantise and Lagrange-encode the verification shares once: for slot
	// j, the M batch rows {refX[m·S+j]}_m are combined per vehicle. Slots
	// are independent and each writes the disjoint column shares[·][j], so
	// contiguous runs of them fan out across the worker pool, one batch
	// scratch per run; the coder itself stays sequential inside the scheme
	// (parallelism lives at the slot level).
	workers := parallel.Workers(0)
	shares := make([][][]field.Element, cfg.NumVehicles)
	for v := range shares {
		shares[v] = flatRows(ev.slots, len(refX[0]))
	}
	runs := min(workers, ev.slots)
	encErr := parallel.ForEach(workers, runs, func(r int) error {
		batch := flatRows(cfg.NumBatches, len(refX[0]))
		perVehicle := make([][]field.Element, cfg.NumVehicles)
		for j := r * ev.slots / runs; j < (r+1)*ev.slots/runs; j++ {
			if err := ev.quantiseSlot(j, batch); err != nil {
				return err
			}
			for v := range perVehicle {
				perVehicle[v] = shares[v][j]
			}
			if err := coder.EncodeVectorsInto(batch, perVehicle); err != nil {
				return fmt.Errorf("core: encoding slot %d: %w", j, err)
			}
		}
		return nil
	})
	if encErr != nil {
		return nil, encErr
	}
	dec, err := reedsolomon.NewDecoder(coder.Points(), k)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sch := &Scheme{
		evaluator: ev,
		cfg:       cfg,
		coder:     coder,
		shares:    shares,
		k:         k,
		dec:       dec,
		out:       make([]float64, len(refX)),
	}
	if cfg.Obs.Enabled() {
		o := cfg.Obs
		sch.obs = o
		dec.SetObs(o)
		sch.cDecodeFailures = o.Counter("core.decode_failures", obs.CountOf("core.slot_fail"))
		sch.cAggregates = o.Counter("core.aggregates", obs.CountOf("core.aggregate"))
		sch.cFlagged = o.Counter("core.flagged_vehicles", obs.SumOf("core.aggregate", "flagged"))
		sch.hAggregateNs = o.Histogram("core.aggregate_ns", obs.LatencyBuckets(), obs.SpanOf("core.aggregate"))
	}
	return sch, nil
}

// Name implements fl.Scheme.
func (s *Scheme) Name() string { return "l-cofl" }

// RecoverThreshold returns K = d·(M−1)+1 of eq. 6.
func (s *Scheme) RecoverThreshold() int { return s.k }

// MaxMalicious returns the E-security budget ⌊(V−K)/2⌋ (eq. 6).
func (s *Scheme) MaxMalicious() int {
	return reedsolomon.MaxErrors(s.cfg.NumVehicles, s.k)
}

// Upload implements fl.Scheme: vehicle vehicleID's upload vector (see
// evaluator.appendUpload for its layout), from the share the fusion side
// holds for it. Each call returns a fresh vector the caller keeps:
// fl.System uploads for many vehicles at once and holds every vector to
// the round's close.
func (s *Scheme) Upload(vehicleID int, model *nn.Network) ([]float64, error) {
	if vehicleID < 0 || vehicleID >= s.cfg.NumVehicles {
		return nil, fmt.Errorf("core: vehicle ID %d outside [0, %d)", vehicleID, s.cfg.NumVehicles)
	}
	return s.appendUpload(make([]float64, 0, s.UploadLen()), vehicleID, s.shares[vehicleID], model)
}

// Aggregate implements fl.Scheme: one decode of the round, through the
// same ingest the pipelined engine streams into. Every present vehicle's
// upload is ingested in vehicle-ID order (the last round's flagged
// vehicles last, stream.go) and finish decodes every verification slot
// with the exact Reed–Solomon decoder at once. A
// vehicle counts only if no slot located it and every learning value it
// sent is an estimate in [0, 1] (DESIGN.md §1); the targets are the
// per-sample means of those vehicles' learning estimations. If more than
// half the verification slots are undecodable (error budget of eq. 6
// exceeded), the round degrades to a per-sample median over all vehicles
// — still robust to a minority of liars, but without the eq. 6 guarantee.
// The targets are the scheme's own buffer, valid until its next
// Aggregate or AggregateStreamed: copy them to keep a round's.
func (s *Scheme) Aggregate(uploads [][]float64) ([]float64, error) {
	if err := s.checkUploads(uploads); err != nil {
		return nil, err
	}
	return s.aggregate(uploads)
}

// checkUploads validates a round's rows: one per vehicle, each absent
// (nil) or a whole upload.
func (s *Scheme) checkUploads(uploads [][]float64) error {
	if len(uploads) != s.cfg.NumVehicles {
		return fmt.Errorf("core: got %d uploads, want %d", len(uploads), s.cfg.NumVehicles)
	}
	for i, up := range uploads {
		if up != nil && len(up) != s.UploadLen() {
			return fmt.Errorf("core: vehicle %d uploaded %d values, want %d", i, len(up), s.UploadLen())
		}
	}
	return nil
}

// aggregate ingests the checked rows into the scheme's one RoundIngest
// and finishes the round on it.
func (s *Scheme) aggregate(uploads [][]float64) ([]float64, error) {
	start := s.obs.Now()
	r := s.beginIngest()
	for i, up := range uploads {
		if err := r.Add(i, up); err != nil {
			return nil, err
		}
	}
	return s.finish(r, uploads, start)
}

// finish closes the round r ingested: it flushes the deferred rows,
// finalizes the decode of every slot, merges the per-slot verdicts in slot
// order, applies the range rule Add recorded, and forms the targets from
// uploads, the rows r ingested. start is when the round's aggregation
// began, for the core.aggregate span.
func (s *Scheme) finish(r *RoundIngest, uploads [][]float64, start time.Duration) ([]float64, error) {
	if err := r.flush(); err != nil {
		return nil, err
	}
	results, errs, stats := r.inc.Finalize(0) // 0: GOMAXPROCS
	s.BatchRecovered, s.BatchFallbacks = stats.Recovered, stats.Fallbacks
	if s.obs.TraceEnabled() {
		s.obs.Emit("core.batch_group",
			obs.F("slots", s.slots),
			obs.F("present", r.count),
			obs.F("recovered", stats.Recovered),
			obs.F("fallbacks", stats.Fallbacks),
			obs.F("combined_ok", stats.CombinedOK))
	}
	s.DecodeFailures = 0
	if len(s.DetectedMalicious) != s.cfg.NumVehicles {
		s.DetectedMalicious = make([]int, s.cfg.NumVehicles)
	}
	clear(s.DetectedMalicious)
	// The merge runs in slot order, so slot_fail events land in the trace
	// deterministically whatever GOMAXPROCS is.
	for j, err := range errs {
		if err != nil {
			s.DecodeFailures++
			if s.obs.TraceEnabled() {
				s.obs.Emit("core.slot_fail", obs.F("slot", j))
			}
			continue
		}
		for _, id := range results[j].ErrorPositions {
			s.DetectedMalicious[id]++
		}
	}
	for _, id := range r.outOfRange {
		s.DetectedMalicious[id]++
	}
	targets := s.targets(uploads)
	if s.obs.Enabled() {
		// Cumulative counters mirror the per-round fields: add this round's
		// deltas so totals stay in lock-step with them.
		elapsed := s.obs.Now() - start
		s.cAggregates.Inc()
		s.hAggregateNs.Observe(int64(elapsed))
		s.cDecodeFailures.Add(int64(s.DecodeFailures))
		s.cFlagged.Add(int64(s.flaggedCount()))
		fields := []obs.Field{
			obs.F("slots", s.slots),
			obs.F("decode_failures", s.DecodeFailures),
			obs.F("batch_recovered", s.BatchRecovered),
			obs.F("batch_fallbacks", s.BatchFallbacks),
			obs.F("flagged", s.flaggedCount()),
		}
		if p := s.spanParent; p.Valid() {
			span := obs.DeriveSpan(p.Trace, "core.aggregate", p.Span)
			fields = append(fields, obs.CtxFields(obs.SpanContext{Trace: p.Trace, Span: span}, p.Span)...)
		}
		s.obs.EmitSpan("core.aggregate", start, elapsed, fields...)
	}
	return targets, nil
}

// targets forms the round's estimation targets, into s.out, from the
// verdict in DecodeFailures and DetectedMalicious.
func (s *Scheme) targets(uploads [][]float64) []float64 {
	offset := 2 * s.slots
	targets := s.out
	clear(targets)
	if 2*s.DecodeFailures > s.slots {
		// Verification unusable: robust fallback without exclusions. NaN
		// has no order, so the median leaves it out.
		for j := range targets {
			vals := s.aggVals[:0]
			for _, up := range uploads {
				if up != nil && !math.IsNaN(up[offset+j]) {
					vals = append(vals, up[offset+j])
				}
			}
			s.aggVals = vals
			if len(vals) == 0 {
				targets[j] = fl.Dropped
				continue
			}
			targets[j] = median(vals)
		}
		return targets
	}
	// Learning: average the verified vehicles' estimations per sample,
	// walking each upload once. Every target sums the same vehicles in
	// ascending ID from zero, so it is the float the sample-by-sample walk
	// gives (perSlotReference in lcofl_test.go keeps that walk).
	verified := 0
	for i, up := range uploads {
		if up == nil || s.DetectedMalicious[i] > 0 {
			continue
		}
		verified++
		for j, v := range up[offset:] {
			targets[j] += v
		}
	}
	for j := range targets {
		if verified == 0 {
			targets[j] = fl.Dropped
		} else {
			targets[j] /= float64(verified)
		}
	}
	return targets
}

// median sorts vals in place and returns its median (NaN when empty).
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// SuspectedMalicious returns the vehicles flagged on at least one
// verification slot in the last Aggregate — the fusion centre's
// malicious-vehicle report (nil when none; a fresh slice otherwise).
func (s *Scheme) SuspectedMalicious() []int {
	n := s.flaggedCount()
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for id, cnt := range s.DetectedMalicious {
		if cnt > 0 {
			out = append(out, id)
		}
	}
	return out
}

// flaggedCount is len(SuspectedMalicious()) without building the list.
func (s *Scheme) flaggedCount() int {
	n := 0
	for _, cnt := range s.DetectedMalicious {
		if cnt > 0 {
			n++
		}
	}
	return n
}

// verify interface compliance.
var _ fl.Scheme = (*Scheme)(nil)
