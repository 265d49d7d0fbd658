package core

import (
	"fmt"
	"math/rand"

	"repro/internal/field"
	"repro/internal/fixedpoint"
	"repro/internal/lagrange"
	"repro/internal/poly"
	"repro/internal/reedsolomon"
)

// InferenceConfig parameterises the standalone coded-inference pipeline
// over GF(p).
type InferenceConfig struct {
	// NumVehicles is V.
	NumVehicles int
	// NumBatches is M.
	NumBatches int
	// PrivacyT adds T uniformly random padding batches to the Lagrange
	// interpolation (the LCC privacy construction of Yu et al., the
	// paper's ref. [24]): any coalition of at most T vehicles learns
	// nothing about the data from its shares. The recover threshold grows
	// to deg(C)·(M+T−1)+1, trading error budget for privacy.
	PrivacyT int
	// FracBits is the fixed-point fractional resolution; the end-to-end
	// computation carries (2·deg+1)·FracBits fractional bits and
	// NewInference validates the headroom against GF(p).
	FracBits uint
	// Seed drives the random choice of field encoding elements and the
	// privacy padding.
	Seed int64
}

// Inference runs the paper's Steps 1–3 with exact arithmetic: the shared
// single-layer polynomial model is evaluated on Lagrange-encoded data over
// GF(p), and the Gao Reed–Solomon decoder recovers every batch estimation
// exactly while identifying the malicious vehicles (eq. 6 security).
type Inference struct {
	cfg   InferenceConfig
	coder *lagrange.Coder
	codec *fixedpoint.Codec
	deg   int
	k     int
	rng   *rand.Rand // privacy padding randomness
}

// NewInference selects the field encoding elements and validates the
// fixed-point headroom for a model of the given activation degree.
func NewInference(cfg InferenceConfig, activationDegree int) (*Inference, error) {
	if cfg.NumVehicles < 1 || cfg.NumBatches < 2 {
		return nil, fmt.Errorf("core: need V >= 1 and M >= 2, got V=%d M=%d", cfg.NumVehicles, cfg.NumBatches)
	}
	if cfg.PrivacyT < 0 {
		return nil, fmt.Errorf("core: privacy parameter T=%d must be >= 0", cfg.PrivacyT)
	}
	if activationDegree < 1 {
		return nil, fmt.Errorf("core: activation degree %d must be >= 1", activationDegree)
	}
	k := activationDegree*(cfg.NumBatches+cfg.PrivacyT-1) + 1
	if k > cfg.NumVehicles {
		return nil, fmt.Errorf("core: recover threshold K=%d (with privacy T=%d) exceeds V=%d", k, cfg.PrivacyT, cfg.NumVehicles)
	}
	codec, err := fixedpoint.New(cfg.FracBits)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if bits := (2*uint(activationDegree) + 1) * cfg.FracBits; bits > 50 {
		return nil, fmt.Errorf("core: %d fractional bits at degree %d need %d bits, exceeding the field headroom (choose FracBits <= %d)",
			cfg.FracBits, activationDegree, bits, maxFracBitsFor(activationDegree))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nodes, points := encodingElements(rng, cfg.NumBatches+cfg.PrivacyT, cfg.NumVehicles)
	coder, err := lagrange.NewCoder(nodes, points)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Inference{cfg: cfg, coder: coder, codec: codec, deg: activationDegree, k: k, rng: rng}, nil
}

// RecoverThreshold returns K of eq. 6.
func (inf *Inference) RecoverThreshold() int { return inf.k }

// MaxMalicious returns the E-security budget ⌊(V−K)/2⌋.
func (inf *Inference) MaxMalicious() int {
	return reedsolomon.MaxErrors(inf.cfg.NumVehicles, inf.k)
}

// InferenceResult reports one exact coded-inference round.
type InferenceResult struct {
	// BatchOutputs holds the decoded estimation value of every batch,
	// bit-exact equal to the plaintext fixed-point computation.
	BatchOutputs []float64
	// ErrorPositions lists the vehicle IDs the decoder identified as
	// having returned erroneous results.
	ErrorPositions []int
}

// Run executes one coded inference: the shared single-layer model
// (weights w, bias b, polynomial activation act) is evaluated on every
// batch of batchData ([M][F] — one representative feature vector per
// batch), protected against the malicious vehicles in corrupt (vehicle
// ID → forged field value).
//
// Honest vehicles all evaluate the same polynomial at distinct points, so
// decoding is exact whenever len(corrupt) ≤ MaxMalicious().
func (inf *Inference) Run(w []float64, b float64, act poly.Real, batchData [][]float64, corrupt map[int]field.Element) (*InferenceResult, error) {
	m := inf.cfg.NumBatches
	if len(batchData) != m {
		return nil, fmt.Errorf("core: got %d batches, want %d", len(batchData), m)
	}
	features := len(w)
	for i, row := range batchData {
		if len(row) != features {
			return nil, fmt.Errorf("core: batch %d has %d features, want %d", i, len(row), features)
		}
	}
	fpm, err := newFPModel(inf.codec, w, b, act, inf.deg)
	if err != nil {
		return nil, err
	}
	batchEnc := make([][]field.Element, m, m+inf.cfg.PrivacyT)
	for i, row := range batchData {
		enc, err := inf.codec.EncodeVec(row)
		if err != nil {
			return nil, fmt.Errorf("core: batch %d: %w", i, err)
		}
		batchEnc[i] = enc
	}
	// Privacy padding: T batches of uniformly random field elements make
	// every set of ≤ T shares statistically independent of the data
	// (fresh randomness each Run).
	for t := 0; t < inf.cfg.PrivacyT; t++ {
		pad := make([]field.Element, features)
		for f := range pad {
			pad[f] = field.Rand(inf.rng)
		}
		batchEnc = append(batchEnc, pad)
	}

	// Steps 1–2: Lagrange-encode the batches and let every vehicle compute
	// the model on its encoded share.
	shares, err := inf.coder.EncodeVectors(batchEnc)
	if err != nil {
		return nil, err
	}
	uploads := make([]field.Element, inf.cfg.NumVehicles)
	for i, share := range shares {
		uploads[i] = fpm.Eval(share)
	}
	for id, forged := range corrupt {
		if id < 0 || id >= len(uploads) {
			return nil, fmt.Errorf("core: corrupt vehicle ID %d out of range", id)
		}
		uploads[id] = forged
	}

	// Step 3: exact Reed–Solomon decoding and read-off at the nodes.
	res, err := reedsolomon.Decode(inf.coder.Points(), uploads, inf.k)
	if err != nil {
		return nil, fmt.Errorf("core: decode: %w", err)
	}
	// Read off only the M data nodes; the trailing T privacy nodes carry
	// padding.
	outputs := make([]float64, m)
	for i, node := range inf.coder.Nodes()[:m] {
		outputs[i] = fpm.Decode(res.Poly.Eval(node))
	}
	return &InferenceResult{
		BatchOutputs:   outputs,
		ErrorPositions: res.ErrorPositions,
	}, nil
}

// Shares exposes the encoded shares for the given batches — used by the
// privacy tests to check that individual shares are masked. The returned
// slice is indexed by vehicle.
func (inf *Inference) Shares(batchData [][]float64) ([][]field.Element, error) {
	m := inf.cfg.NumBatches
	if len(batchData) != m {
		return nil, fmt.Errorf("core: got %d batches, want %d", len(batchData), m)
	}
	features := len(batchData[0])
	batchEnc := make([][]field.Element, m, m+inf.cfg.PrivacyT)
	for i, row := range batchData {
		enc, err := inf.codec.EncodeVec(row)
		if err != nil {
			return nil, fmt.Errorf("core: batch %d: %w", i, err)
		}
		batchEnc[i] = enc
	}
	for t := 0; t < inf.cfg.PrivacyT; t++ {
		pad := make([]field.Element, features)
		for f := range pad {
			pad[f] = field.Rand(inf.rng)
		}
		batchEnc = append(batchEnc, pad)
	}
	return inf.coder.EncodeVectors(batchEnc)
}

// PlaintextModel computes the same fixed-point model on raw (unencoded)
// data — the ground truth the decoded outputs must match bit-exactly.
func (inf *Inference) PlaintextModel(w []float64, b float64, act poly.Real, x []float64) (float64, error) {
	fpm, err := newFPModel(inf.codec, w, b, act, inf.deg)
	if err != nil {
		return 0, err
	}
	xEnc, err := inf.codec.EncodeVec(x)
	if err != nil {
		return 0, err
	}
	return fpm.Decode(fpm.Eval(xEnc)), nil
}
