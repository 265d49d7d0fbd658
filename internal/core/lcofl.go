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
//
// Inference is the standalone coded-inference pipeline over the same
// machinery, for applications that only need secure estimation of a
// fixed model.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

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
	// FracBits is the fixed-point resolution of the verification channel;
	// zero selects the maximum the field headroom allows at this degree
	// (capped at 16). See fixedpoint for the scale budget.
	FracBits uint
	// Seed drives the random selection of the field encoding elements.
	Seed int64
	// Workers bounds the goroutines used for the per-slot encode at
	// construction and the per-slot verification decodes in Aggregate.
	// Zero (or negative) selects GOMAXPROCS; 1 runs sequentially. Results
	// are bit-identical at any worker count: slots are independent and the
	// per-slot outcomes are merged in slot order.
	Workers int
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
	workers   int // resolved parallelism for slot-level fan-out

	// batchSrc supplies the random combination coefficients for batch
	// decoding; seeded from cfg.Seed, and immaterial to results (the batch
	// decoder is result-equivalent for any coefficients, DESIGN.md §9).
	batchSrc field.Source

	// Aggregate scratch, reused round over round so the steady-state hot
	// path allocates only caller-visible output. Aggregate is called once
	// per round from the FL loop and is not itself concurrent (only its
	// internal slot fan-out is), so plain reuse is safe: each slot's
	// ys/ids/flagged slices are re-sliced to zero length and refilled,
	// keeping their grown capacity.
	aggWords    []slotWord
	aggOutcomes []slotOutcome
	aggEligible []int
	aggBatch    [][]field.Element
	aggCounts   []int           // verified mean: vehicles summed into each target
	aggVals     []float64       // median fallback: one sample's present values
	aggUploads  [][]float64     // the uploads being gathered, during Aggregate only
	gather      func(int) error // gatherSlot, bound once

	// ingest is the scheme's one streamed decode state, reset by every
	// BeginIngest. pendingIngest, when non-nil, is that state lent to one
	// Aggregate call by AggregateStreamed and consumed by the first
	// matching presence group (stream.go).
	ingest        *RoundIngest
	pendingIngest *RoundIngest

	// DecodeFailures counts verification slots whose decode exceeded the
	// error budget in the last Aggregate.
	DecodeFailures int
	// DetectedMalicious holds per-vehicle error counts from the last
	// Aggregate's verification decodes. Aggregate rewrites it in place:
	// copy it to keep a round's counts past the next Aggregate.
	DetectedMalicious []int
	// BatchRecovered and BatchFallbacks count how the last Aggregate's
	// verification decodes split: slots settled by the fast path (the
	// streamed candidate, or the shared-locator recovery of a batch decode)
	// against slots that path had to hand on (BatchStats, summed over the
	// round's presence groups). They feed the core.aggregate span; the
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

// NewScheme quantises and Lagrange-encodes the reference features and
// fixes the encoding elements. len(refX) must be a positive multiple of M,
// and every feature must fit the fixed-point range
// (features normalised to [-1, 1] always do — the eq. 9 precondition).
func NewScheme(refX [][]float64, cfg SchemeConfig) (*Scheme, error) {
	ev, k, err := newEvaluator(refX, cfg)
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
	workers := parallel.Workers(cfg.Workers)
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
		workers:   workers,
		batchSrc:  field.NewSeededSource(cfg.Seed),
	}
	sch.gather = sch.gatherSlot
	if cfg.Obs.Enabled() {
		o := cfg.Obs
		sch.obs = o
		dec.SetObs(o)
		sch.cDecodeFailures = o.Counter("core.decode_failures")
		sch.cAggregates = o.Counter("core.aggregates")
		sch.cFlagged = o.Counter("core.flagged_vehicles")
		sch.hAggregateNs = o.Histogram("core.aggregate_ns", obs.LatencyBuckets())
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

// Aggregate implements fl.Scheme. Per verification slot it decodes the
// received symbols with the exact Reed–Solomon decoder and records which
// vehicles returned erroneous results; a vehicle flagged on any slot is
// excluded. The distillation targets are the per-sample means of the
// surviving vehicles' learning estimations. If more than half the
// verification slots are undecodable (error budget of eq. 6 exceeded),
// the round degrades to a per-sample median over all vehicles — still
// robust to a minority of liars, but without the eq. 6 guarantee.
func (s *Scheme) Aggregate(uploads [][]float64) ([]float64, error) {
	if len(uploads) != s.cfg.NumVehicles {
		return nil, fmt.Errorf("core: got %d uploads, want %d", len(uploads), s.cfg.NumVehicles)
	}
	for i, up := range uploads {
		if up != nil && len(up) != s.UploadLen() {
			return nil, fmt.Errorf("core: vehicle %d uploaded %d values, want %d", i, len(up), s.UploadLen())
		}
	}
	if s.obs.Enabled() {
		start := s.obs.Now()
		defer func() {
			elapsed := s.obs.Now() - start
			s.cAggregates.Inc()
			s.hAggregateNs.Observe(int64(elapsed))
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
		}()
	}
	s.DecodeFailures = 0
	if len(s.DetectedMalicious) != s.cfg.NumVehicles {
		s.DetectedMalicious = make([]int, s.cfg.NumVehicles)
	}
	clear(s.DetectedMalicious)
	s.BatchRecovered = 0
	s.BatchFallbacks = 0

	// Collect each slot's received word and the IDs of the vehicles present
	// in it. Slots are independent, so the gather fans out; each writes
	// only its own index. The words live in round-over-round scratch:
	// every slot's ys/ids restart at length zero with retained capacity.
	if len(s.aggWords) != s.slots {
		s.aggWords = make([]slotWord, s.slots)
		s.aggOutcomes = make([]slotOutcome, s.slots)
	}
	words := s.aggWords
	s.aggUploads = uploads
	_ = parallel.ForEach(s.workers, s.slots, s.gather)
	s.aggUploads = nil

	// Decode the verification slots — each is an independent Reed–Solomon
	// word — then merge the per-slot outcomes in slot order.
	// DecodeFailures and DetectedMalicious are order-independent sums, so
	// the merged counters match the sequential loop exactly.
	outcomes := s.aggOutcomes
	for j := range outcomes {
		outcomes[j].failed = false
		outcomes[j].flagged = outcomes[j].flagged[:0]
	}
	s.aggregateBatch(words, outcomes)
	// The merge runs sequentially in slot order, so slot_fail events land
	// in the trace deterministically even when the decodes fanned out.
	for j, o := range outcomes {
		if o.failed {
			s.DecodeFailures++
			if s.obs.TraceEnabled() {
				s.obs.Emit("core.slot_fail", obs.F("slot", j))
			}
			continue
		}
		for _, id := range o.flagged {
			s.DetectedMalicious[id]++
		}
	}
	if s.obs.Enabled() {
		// Cumulative counters mirror the per-round fields: add this round's
		// deltas so totals stay in lock-step with them.
		s.cDecodeFailures.Add(int64(s.DecodeFailures))
		s.cFlagged.Add(int64(s.flaggedCount()))
	}

	n := len(s.refX)
	offset := 2 * s.slots
	targets := make([]float64, n)
	if 2*s.DecodeFailures > s.slots {
		// Verification unusable: robust fallback without exclusions.
		for j := 0; j < n; j++ {
			vals := s.aggVals[:0]
			for _, up := range uploads {
				if up == nil || fl.IsDropped(up[offset+j]) {
					continue
				}
				vals = append(vals, up[offset+j])
			}
			s.aggVals = vals
			if len(vals) == 0 {
				targets[j] = fl.Dropped
				continue
			}
			targets[j] = median(vals)
		}
		return targets, nil
	}

	// Learning: average the verified vehicles' estimations per sample,
	// walking each upload once. Every target still sums the same vehicles
	// in ascending ID from zero, so it is the float the sample-by-sample
	// walk gave (perSlotReference in lcofl_test.go keeps that walk).
	if len(s.aggCounts) != n {
		s.aggCounts = make([]int, n)
	}
	counts := s.aggCounts
	clear(counts)
	for i, up := range uploads {
		if up == nil || s.DetectedMalicious[i] > 0 {
			continue
		}
		for j, v := range up[offset:] {
			if !fl.IsDropped(v) {
				targets[j] += v
				counts[j]++
			}
		}
	}
	for j, c := range counts {
		if c == 0 {
			targets[j] = fl.Dropped
		} else {
			targets[j] /= float64(c)
		}
	}
	return targets, nil
}

// gatherSlot collects slot j's received word from the uploads Aggregate
// is gathering. It is bound once, as the scheme's gather, so handing it
// to the worker pool allocates no closure per round.
func (s *Scheme) gatherSlot(j int) error {
	w := &s.aggWords[j]
	w.ys, w.ids = w.ys[:0], w.ids[:0]
	for i, up := range s.aggUploads {
		if up == nil || fl.IsDropped(up[2*j]) || fl.IsDropped(up[2*j+1]) {
			continue
		}
		w.ys = append(w.ys, floatsToSymbol(up[2*j], up[2*j+1]))
		w.ids = append(w.ids, i)
	}
	return nil
}

// slotWord is one verification slot's received word: the present
// vehicles' symbols in vehicle-ID order, and those IDs.
type slotWord struct {
	ys  []field.Element
	ids []int
}

// slotOutcome is one slot's verification verdict.
type slotOutcome struct {
	failed  bool
	flagged []int // vehicle IDs with erroneous symbols in this slot
}

// aggregateBatch decodes the gathered slot words through the batch
// shared-locator decoder (DESIGN.md §9), writing outcomes in place.
// Per-value drops mean slots can see different vehicle subsets, and the
// batch decoder requires one common point set, so slots are grouped by
// presence mask (in first-appearance order, deterministically) and each
// group decoded as one batch. The common case is a single full-presence
// group on the cached decoder's own points; straggler masks amortise one
// sub-decoder construction (inside DecodeBatchAt) across their slots.
func (s *Scheme) aggregateBatch(words []slotWord, outcomes []slotOutcome) {
	eligible := s.aggEligible[:0]
	for j := range words {
		if len(words[j].ids) < s.k {
			outcomes[j].failed = true
			continue
		}
		eligible = append(eligible, j)
	}
	s.aggEligible = eligible
	if len(eligible) == 0 {
		return
	}
	// Uniform-presence fast path: when every eligible slot saw the same
	// vehicles — the overwhelmingly common case, every vehicle present —
	// there is exactly one group, and the mask-keyed map (with its
	// per-slot byte-mask and string allocations) is skipped entirely.
	uniform := true
	for _, j := range eligible[1:] {
		if !equalIDs(words[eligible[0]].ids, words[j].ids) {
			uniform = false
			break
		}
	}
	if uniform {
		s.decodeGroup(words, outcomes, eligible)
		return
	}
	groups := make(map[string][]int)
	var order []string
	for _, j := range eligible {
		key := maskKey(words[j].ids, s.cfg.NumVehicles)
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], j)
	}
	for _, key := range order {
		s.decodeGroup(words, outcomes, groups[key])
	}
}

// decodeGroup batch-decodes one presence group (slot indices sharing a
// vehicle set), writing outcomes in place. The decoder's points are
// indexed by vehicle ID, so either entry reports error positions as
// vehicle IDs.
func (s *Scheme) decodeGroup(words []slotWord, outcomes []slotOutcome, slots []int) {
	ids := words[slots[0]].ids
	var results []*reedsolomon.Result
	var errs []error
	var stats reedsolomon.BatchStats
	// Streamed fast path: when this group spans every verification slot
	// and its vehicle set is exactly the ingested set, each slot's word
	// equals the streamed symbols and the incremental decoder's Finalize
	// is bit-identical to DecodeBatchAt on it (stream.go).
	if ri := s.pendingIngest; ri != nil && len(slots) == s.slots && ri.matches(ids) && ri.flush() {
		s.pendingIngest = nil
		results, errs, stats = ri.inc.Finalize(s.workers)
	} else {
		batch := s.aggBatch[:0]
		for _, j := range slots {
			batch = append(batch, words[j].ys)
		}
		s.aggBatch = batch
		results, errs, stats = s.dec.DecodeBatchAt(ids, batch, s.batchSrc, s.workers)
	}
	s.recordGroup(len(slots), len(ids), stats)
	for t, j := range slots {
		if errs[t] != nil {
			outcomes[j].failed = true
			continue
		}
		outcomes[j].flagged = append(outcomes[j].flagged, results[t].ErrorPositions...)
	}
}

// recordGroup adds one decoded presence group's split to the round's
// tallies and, when tracing, emits its core.batch_group event.
func (s *Scheme) recordGroup(slots, present int, stats reedsolomon.BatchStats) {
	s.BatchRecovered += stats.Recovered
	s.BatchFallbacks += stats.Fallbacks
	if s.obs.TraceEnabled() {
		s.obs.Emit("core.batch_group",
			obs.F("slots", slots),
			obs.F("present", present),
			obs.F("recovered", stats.Recovered),
			obs.F("fallbacks", stats.Fallbacks),
			obs.F("combined_ok", stats.CombinedOK))
	}
}

// equalIDs reports whether two strictly-increasing vehicle-ID lists are
// identical.
func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// maskKey packs the presence set into a bitmask string usable as a map
// key; ids are strictly increasing vehicle IDs below numVehicles.
func maskKey(ids []int, numVehicles int) string {
	mask := make([]byte, (numVehicles+7)/8)
	for _, i := range ids {
		mask[i/8] |= 1 << (i % 8)
	}
	return string(mask)
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
