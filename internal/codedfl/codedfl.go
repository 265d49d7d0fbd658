// Package codedfl implements the comparison baseline of the paper's
// Fig. 2: the "coded federated learning" scheme of Dhakal et al. [32]
// (GLOBECOM 2019), reimplemented inside this repository's round structure.
//
// The baseline differs from L-CoFL in exactly the ways the paper lists:
// it uses RANDOM LINEAR encoding rather than Lagrange encoding, a fixed
// fleet of 24 vehicles, mitigates stragglers only (all vehicles are
// assumed faithful — no Reed–Solomon decoding, no malicious protection),
// and does not approximate the ML model (vehicles keep their exact
// activation).
//
// Concretely, each vehicle i holds a private random coding block
// G_i ∈ R^{c×R} fixed at setup. After local training it computes its
// estimation vector e_i over the R reference samples and uploads the c
// coded measurements G_i·e_i. The fusion centre stacks every received
// measurement and recovers the aggregate estimation vector by ridge
// least squares; as long as the surviving measurement count stays ≥ R the
// reconstruction tolerates straggling vehicles, which is [32]'s goal.
// Malicious uploads corrupt the least-squares system directly — the
// baseline has no defence, as the paper notes.
package codedfl

import (
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/fl"
	"repro/internal/linalg"
	"repro/internal/nn"
)

// DefaultVehicles is the fleet size used in [32] and in the paper's
// Fig. 2 comparison.
const DefaultVehicles = 24

// Config parameterises the baseline scheme.
type Config struct {
	// NumVehicles is the fleet size (defaults to DefaultVehicles when 0).
	NumVehicles int
	// MeasurementsPerVehicle is c, the coded upload size. The total
	// V·c must exceed the reference size R for the least-squares recovery
	// to be determined; zero selects ⌈1.5·R/V⌉ (50% redundancy).
	MeasurementsPerVehicle int
	// Seed drives the random coding blocks. A non-zero seed selects a
	// deterministic source for reproducible simulation (Fig. 2 runs);
	// zero draws the blocks from crypto/rand, matching [32]'s assumption
	// that G_i is private to vehicle i.
	Seed int64
}

// Scheme implements fl.Scheme with random-linear-coded aggregation.
type Scheme struct {
	cfg  Config
	refX [][]float64
	g    []*linalg.Matrix // per-vehicle coding block, c×R
}

// NewScheme draws the per-vehicle coding blocks over the reference set.
func NewScheme(refX [][]float64, cfg Config) (*Scheme, error) {
	if len(refX) == 0 {
		return nil, fmt.Errorf("codedfl: reference features required")
	}
	if cfg.NumVehicles == 0 {
		cfg.NumVehicles = DefaultVehicles
	}
	if cfg.NumVehicles < 1 {
		return nil, fmt.Errorf("codedfl: vehicle count %d must be positive", cfg.NumVehicles)
	}
	r := len(refX)
	if cfg.MeasurementsPerVehicle == 0 {
		cfg.MeasurementsPerVehicle = (3*r + 2*cfg.NumVehicles - 1) / (2 * cfg.NumVehicles)
	}
	if cfg.MeasurementsPerVehicle < 1 {
		return nil, fmt.Errorf("codedfl: measurements per vehicle %d must be positive", cfg.MeasurementsPerVehicle)
	}
	if cfg.NumVehicles*cfg.MeasurementsPerVehicle < r {
		return nil, fmt.Errorf("codedfl: %d total measurements cannot determine %d reference samples",
			cfg.NumVehicles*cfg.MeasurementsPerVehicle, r)
	}
	var src field.Source
	if cfg.Seed != 0 {
		src = field.NewSeededSource(cfg.Seed)
	} else {
		src = field.NewCryptoSource()
	}
	gauss := &gaussian{src: src}
	s := &Scheme{cfg: cfg, refX: cloneRows(refX)}
	norm := 1 / math.Sqrt(float64(r))
	for v := 0; v < cfg.NumVehicles; v++ {
		g := linalg.NewMatrix(cfg.MeasurementsPerVehicle, r)
		for i := 0; i < cfg.MeasurementsPerVehicle; i++ {
			for j := 0; j < r; j++ {
				g.Set(i, j, gauss.norm()*norm)
			}
		}
		s.g = append(s.g, g)
	}
	return s, nil
}

// gaussian draws standard normal variates from a field.Source by the
// Box–Muller transform, producing two per transform.
type gaussian struct {
	src      field.Source
	spare    float64
	hasSpare bool
}

func (g *gaussian) norm() float64 {
	if g.hasSpare {
		g.hasSpare = false
		return g.spare
	}
	// 53-bit uniforms; the +0.5 offset keeps u1 strictly positive so the
	// logarithm is finite.
	u1 := (float64(g.src.Uint64()>>11) + 0.5) / (1 << 53)
	u2 := float64(g.src.Uint64()>>11) / (1 << 53)
	r := math.Sqrt(-2 * math.Log(u1))
	g.spare = r * math.Sin(2*math.Pi*u2)
	g.hasSpare = true
	return r * math.Cos(2*math.Pi*u2)
}

func cloneRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// Name implements fl.Scheme.
func (s *Scheme) Name() string { return "coded-fl-dhakal" }

// BeginRound implements fl.Scheme; the baseline has no verification
// channel.
func (s *Scheme) BeginRound(*nn.Network) error { return nil }

// MeasurementsPerVehicle returns c.
func (s *Scheme) MeasurementsPerVehicle() int { return s.cfg.MeasurementsPerVehicle }

// Upload implements fl.Scheme: the coded measurements G_i·e_i of the
// vehicle's estimation vector.
func (s *Scheme) Upload(vehicleID int, model *nn.Network) ([]float64, error) {
	if vehicleID < 0 || vehicleID >= s.cfg.NumVehicles {
		return nil, fmt.Errorf("codedfl: vehicle ID %d outside [0, %d)", vehicleID, s.cfg.NumVehicles)
	}
	est := make([]float64, len(s.refX))
	for j, x := range s.refX {
		pi, err := model.EstimateClamped(x)
		if err != nil {
			return nil, fmt.Errorf("codedfl: vehicle %d sample %d: %w", vehicleID, j, err)
		}
		est[j] = pi
	}
	return s.g[vehicleID].MulVec(est)
}

// Aggregate implements fl.Scheme: stack all surviving measurements and
// recover the aggregate estimation vector by ridge least squares.
func (s *Scheme) Aggregate(uploads [][]float64) ([]float64, error) {
	if len(uploads) != s.cfg.NumVehicles {
		return nil, fmt.Errorf("codedfl: got %d uploads, want %d", len(uploads), s.cfg.NumVehicles)
	}
	r := len(s.refX)
	var rows [][]float64
	var rhs []float64
	for v, up := range uploads {
		if up == nil {
			continue // straggler: its measurements never arrived
		}
		if len(up) != s.cfg.MeasurementsPerVehicle {
			return nil, fmt.Errorf("codedfl: vehicle %d uploaded %d values, want %d", v, len(up), s.cfg.MeasurementsPerVehicle)
		}
		for i, y := range up {
			rows = append(rows, s.g[v].Row(i))
			rhs = append(rhs, y)
		}
	}
	if len(rows) < r {
		return nil, fmt.Errorf("codedfl: only %d measurements survived, need %d (straggler tolerance exceeded)", len(rows), r)
	}
	design, err := linalg.FromRows(rows)
	if err != nil {
		return nil, err
	}
	// Ridge keeps the recovery stable when surviving rows are barely
	// determined; λ scales with the row count like the normal equations.
	est, err := linalg.RidgeLeastSquares(design, rhs, 1e-9*float64(len(rows)))
	if err != nil {
		return nil, fmt.Errorf("codedfl: recovery failed: %w", err)
	}
	return est, nil
}

// verify interface compliance.
var _ fl.Scheme = (*Scheme)(nil)
