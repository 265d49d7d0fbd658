package core

import (
	"fmt"
	"math/rand"

	"repro/internal/field"
	"repro/internal/fixedpoint"
	"repro/internal/lagrange"
	"repro/internal/nn"
)

// evaluator is the part of L-CoFL both sides of a round hold — the fusion
// centre's Scheme and a vehicle's Share embed it: the reference set, the
// fixed-point codec and the round's quantised broadcast model. BeginRound
// and the upload-vector assembly live here and nowhere else, so a Share's
// upload is a Scheme's by construction.
type evaluator struct {
	codec *fixedpoint.Codec
	deg   int         // configured end-to-end degree
	refX  [][]float64 // original reference order (learning channel)
	slots int         // S: verification slots per vehicle
	fpm   *fpModel    // broadcast model, quantised per round
}

// newEvaluator validates the arguments NewScheme and NewShare have in
// common, fixes the codec at frac fractional bits and copies the reference
// set. It also returns the recover threshold K it checked against V.
func newEvaluator(refX [][]float64, cfg SchemeConfig, frac uint) (evaluator, int, error) {
	var none evaluator
	if cfg.NumVehicles < 1 {
		return none, 0, fmt.Errorf("core: need at least one vehicle, got %d", cfg.NumVehicles)
	}
	if cfg.NumBatches < 2 {
		return none, 0, fmt.Errorf("core: need at least two batches, got %d", cfg.NumBatches)
	}
	if cfg.Degree < 1 {
		return none, 0, fmt.Errorf("core: degree %d must be >= 1", cfg.Degree)
	}
	if len(refX) == 0 || len(refX)%cfg.NumBatches != 0 {
		return none, 0, fmt.Errorf("core: reference size %d is not a positive multiple of M=%d", len(refX), cfg.NumBatches)
	}
	k := cfg.Degree*(cfg.NumBatches-1) + 1
	if k > cfg.NumVehicles {
		return none, 0, fmt.Errorf("core: recover threshold K=%d exceeds V=%d (eq. 6 unsatisfiable even with zero errors)", k, cfg.NumVehicles)
	}
	codec, err := fixedpoint.New(frac)
	if err != nil {
		return none, 0, fmt.Errorf("core: degree %d: %w", cfg.Degree, err)
	}
	// One row-major block, not a slice per row: every upload streams the
	// whole reference set through the learning channel.
	features := len(refX[0])
	flat := make([]float64, len(refX)*features)
	refCopy := make([][]float64, len(refX))
	for i, r := range refX {
		if len(r) != features {
			return none, 0, fmt.Errorf("core: reference sample %d has %d features, want %d", i, len(r), features)
		}
		refCopy[i] = flat[i*features : (i+1)*features : (i+1)*features]
		copy(refCopy[i], r)
	}
	return evaluator{codec: codec, deg: cfg.Degree, refX: refCopy, slots: len(refX) / cfg.NumBatches}, k, nil
}

// flatRows returns n rows of the given width cut from one allocation.
func flatRows(n, width int) [][]field.Element {
	flat := make([]field.Element, n*width)
	rows := make([][]field.Element, n)
	for i := range rows {
		rows[i] = flat[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// encodingElements draws the batch nodes {ℓ_m} and the vehicle points
// {ρ_i} (Step 1), disjoint and pairwise distinct. It is the one derivation
// of the field elements: a vehicle and the fusion centre seeding rng alike
// hold the same ρ_i.
func encodingElements(rng *rand.Rand, batches, vehicles int) (nodes, points []field.Element) {
	nodes = field.RandDistinct(rng, batches, nil)
	points = field.RandDistinct(rng, vehicles, nodes)
	return nodes, points
}

// quantiseSlot overwrites batch, M rows of the reference width, with
// verification slot j's M batch rows {refX[m·S+j]}_m in GF(p) — what the
// Lagrange encoder combines.
func (e *evaluator) quantiseSlot(j int, batch [][]field.Element) error {
	for m, row := range batch {
		if err := e.codec.EncodeVecInto(row, e.refX[m*e.slots+j]); err != nil {
			return fmt.Errorf("core: reference batch %d slot %d: %w", m, j, err)
		}
	}
	return nil
}

// Slots returns S, the number of verification slots per vehicle.
func (e *evaluator) Slots() int { return e.slots }

// UploadLen returns the total upload size: 2·S verification floats (each
// field symbol travels as two exact 32-bit halves) plus len(refX)
// learning estimations.
func (e *evaluator) UploadLen() int { return 2*e.slots + len(e.refX) }

// FracBits returns the verification channel's fixed-point resolution.
func (e *evaluator) FracBits() uint { return e.codec.FracBits() }

// BeginRound implements fl.Scheme: it quantises the broadcast model every
// honest vehicle uses on the verification channel this round. The model
// (single-layer, as every nn.Network is) must take the reference set's
// feature width and have a polynomial activation of degree ≤ Degree (the
// L-CoFL requirement from §IV Step 2). It is only read, and only during
// the call: callers pass their live model, no clone.
func (e *evaluator) BeginRound(shared *nn.Network) error {
	if shared == nil {
		return fmt.Errorf("core: nil shared model")
	}
	actPoly := shared.Activation().Poly
	if actPoly == nil {
		return fmt.Errorf("core: shared model's activation %q is not a polynomial approximation", shared.Activation().Name)
	}
	features := len(e.refX[0])
	if shared.InputSize() != features {
		return fmt.Errorf("core: model input %d, reference features %d", shared.InputSize(), features)
	}
	// Re-quantise into the previous round's model: same shape every round,
	// so nothing is allocated. Upload only runs between BeginRounds, never
	// during one.
	if e.fpm == nil {
		e.fpm = &fpModel{codec: e.codec, deg: e.deg}
	}
	params := shared.ParamsView() // [w… b] for a single layer
	if err := e.fpm.quantise(params[:features], params[features], actPoly); err != nil {
		e.fpm = nil // partly overwritten: Upload must refuse it
		return err
	}
	return nil
}

// appendUpload appends one vehicle's upload vector, assembled from its S
// encoded rows, to dst. The first 2·S scalars are the verification
// channel: the quantised broadcast model evaluated on each row, every
// field symbol split into two exact float halves. The remaining scalars
// are the learning channel: the locally-trained model's estimations of
// every raw reference sample.
func (e *evaluator) appendUpload(dst []float64, vehicleID int, rows [][]field.Element, model *nn.Network) ([]float64, error) {
	if e.fpm == nil {
		return nil, fmt.Errorf("core: BeginRound must run before Upload")
	}
	out := dst
	for _, row := range rows {
		hi, lo := symbolToFloats(e.fpm.Eval(row))
		out = append(out, hi, lo)
	}
	out, err := model.EstimateClampedAppend(out, e.refX)
	if err != nil {
		return nil, fmt.Errorf("core: vehicle %d learning channel: %w", vehicleID, err)
	}
	return out, nil
}

// Share is the vehicle side of the scheme, what the paper has vehicle i
// hold: its evaluation X̃_i = H(ρ_i) of the encoding polynomial (eqs. 3–4,
// 8), S encoded rows, and the reference set for the learning channel.
// Nothing in it grows with V: no other vehicle's share, no V×M weight
// matrix, no decoder. Field arithmetic is exact, so its upload is
// Scheme.Upload(i, …) bit for bit. One goroutine drives it, like a Scheme.
type Share struct {
	evaluator
	id   int
	rows [][]field.Element // [S][F]: H(ρ_i), slot by slot
	out  []float64         // the upload vector, rewritten by every Upload
}

// NewShare builds vehicle vehicleID's share of the scheme NewScheme(refX,
// cfg) builds, with the same argument checks plus the ID range. cfg.Obs is
// the fusion side's and is not read.
func NewShare(refX [][]float64, cfg SchemeConfig, vehicleID int) (*Share, error) {
	return newShare(refX, cfg, vehicleID, fracBits(cfg.Degree))
}

// newShare is NewShare at frac fractional bits.
func newShare(refX [][]float64, cfg SchemeConfig, vehicleID int, frac uint) (*Share, error) {
	ev, _, err := newEvaluator(refX, cfg, frac)
	if err != nil {
		return nil, err
	}
	if vehicleID < 0 || vehicleID >= cfg.NumVehicles {
		return nil, fmt.Errorf("core: vehicle ID %d outside [0, %d)", vehicleID, cfg.NumVehicles)
	}
	nodes, points := encodingElements(rand.New(rand.NewSource(cfg.Seed)), cfg.NumBatches, cfg.NumVehicles)
	// A one-point coder: the M basis weights p_m(ρ_i) and nothing else.
	coder, err := lagrange.NewCoder(nodes, points[vehicleID:vehicleID+1])
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	batch := flatRows(cfg.NumBatches, len(refX[0]))
	rows := flatRows(ev.slots, len(refX[0]))
	for j := range rows {
		if err := ev.quantiseSlot(j, batch); err != nil {
			return nil, err
		}
		if err := coder.EncodeVectorsInto(batch, rows[j:j+1]); err != nil {
			return nil, fmt.Errorf("core: encoding slot %d: %w", j, err)
		}
	}
	return &Share{evaluator: ev, id: vehicleID, rows: rows}, nil
}

// Upload is Scheme.Upload for this share's vehicle, written into a buffer
// the share owns: the vector is valid, and the caller may modify it, until
// the next Upload overwrites it. A vehicle resends it as is when a round is
// re-broadcast.
func (s *Share) Upload(model *nn.Network) ([]float64, error) {
	out, err := s.appendUpload(s.out[:0], s.id, s.rows, model)
	if err != nil {
		return nil, err
	}
	s.out = out
	return out, nil
}
