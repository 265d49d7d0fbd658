// Quickstart: one verified L-CoFL round.
//
// A fusion centre (core.Scheme) and V=20 vehicles (one core.Share each)
// run the paper's Steps 1–3 once: every vehicle evaluates the broadcast
// polynomial model on its Lagrange-encoded share (eqs. 3–4) and uploads
// those symbols beside its own model's estimates of the reference samples.
// Five vehicles lie: they overwrite their verification halves and flip
// their estimates. The Reed–Solomon decode locates them (eq. 6), and the
// targets are the mean over the vehicles it verified. The program exits
// non-zero unless the located set is exactly the five liars and the
// targets are, bit for bit, the honest vehicles' mean.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"slices"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/traffic"
)

func main() {
	const (
		vehicles = 20
		batches  = 4
		degree   = 2
		liars    = 5
	)
	ds, err := traffic.Generate(traffic.GenConfig{Rows: batches * 6, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	refX := ds.Features()
	cfg := core.SchemeConfig{NumVehicles: vehicles, NumBatches: batches, Degree: degree, Seed: 2}
	scheme, err := core.NewScheme(refX, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("V=%d, M=%d, degree %d: recover threshold K=%d, error budget E=%d (eq. 6)\n",
		vehicles, batches, degree, scheme.RecoverThreshold(), scheme.MaxMalicious())

	// A single-layer model whose activation is the least-squares degree-2
	// polynomial of the paper's sigmoid (§IV Step 2). The broadcast model
	// and every vehicle's local model share its shape, not its weights.
	act, err := approx.LeastSquares{SamplePoints: 21}.Fit(approx.SymmetricSigmoid().F, -2, 2, degree)
	if err != nil {
		log.Fatal(err)
	}
	model := func(seed int64) *nn.Network {
		m, err := nn.New(nn.Config{
			LayerSizes: []int{traffic.NumFeatures, 1},
			Activation: approx.FromPolynomial("ls-2", act),
			Seed:       seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		return m
	}
	shared := model(1)
	if err := scheme.BeginRound(shared); err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	planted := rng.Perm(vehicles)[:liars]
	slices.Sort(planted)
	halves := 2 * scheme.Slots()
	uploads := make([][]float64, vehicles)
	for id := range uploads {
		share, err := core.NewShare(refX, cfg, id)
		if err != nil {
			log.Fatal(err)
		}
		if err := share.BeginRound(shared); err != nil {
			log.Fatal(err)
		}
		up, err := share.Upload(model(int64(10 + id)))
		if err != nil {
			log.Fatal(err)
		}
		if slices.Contains(planted, id) {
			for j := range up[:halves] {
				up[j] = float64(rng.Uint32())
			}
			for j := halves; j < len(up); j++ {
				up[j] = 1 - up[j]
			}
		}
		uploads[id] = up
	}
	targets, err := scheme.Aggregate(uploads)
	if err != nil {
		log.Fatal(err)
	}
	located := scheme.SuspectedMalicious()
	fmt.Printf("planted liars:    %v\nlocated vehicles: %v\n", planted, located)

	// The honest vehicles' mean, summed in vehicle order as the scheme does.
	want := make([]float64, len(refX))
	for id, up := range uploads {
		if !slices.Contains(planted, id) {
			for j, v := range up[halves:] {
				want[j] += v
			}
		}
	}
	exact := true
	var mean float64
	for j := range want {
		want[j] /= vehicles - liars
		exact = exact && math.Float64bits(want[j]) == math.Float64bits(targets[j])
		mean += targets[j] / float64(len(targets))
	}
	fmt.Printf("verified mean estimate over %d reference samples: %.4f\n", len(targets), mean)
	fmt.Printf("bit-identical to the honest vehicles' mean: %v\n", exact)
	if !slices.Equal(located, planted) || !exact {
		os.Exit(1)
	}
}
