// Traffic prediction: the paper's §V application end to end.
//
// 60 honest vehicles collaboratively train the shared traffic-slowness
// model with L-CoFL: the activation is replaced by its least-squares
// polynomial (paper §IV Step 2, §V), every round runs the coded
// verification channel plus verified estimation aggregation, and the
// fusion centre distils the aggregate into the shared model. The program
// exits non-zero if the verification flags any of its honest vehicles in
// any round.
//
// Run: go run ./examples/traffic_prediction
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/traffic"
)

func main() {
	const vehicles = 60

	// Synthetic São Paulo-style data (see DESIGN.md §2): 16 features per
	// half-hour slot, binary slow/fast label.
	ds, err := traffic.Generate(traffic.GenConfig{Rows: 3000, Seed: 10})
	if err != nil {
		log.Fatal(err)
	}
	train, test, err := ds.Split(0.8, 11)
	if err != nil {
		log.Fatal(err)
	}
	refDS, err := traffic.Generate(traffic.GenConfig{Rows: 16 * 8, Seed: 12})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := train.PartitionIID(vehicles, 13)
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: approximate the activation (paper eq. 10) by least squares
	// on 21 uniform points of [-2, 2] — the paper's §VI setting.
	exact := approx.SymmetricSigmoid()
	poly, report, err := approx.Evaluate(approx.LeastSquares{SamplePoints: 21}, exact.F, -2, 2, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("activation approximation: %s degree %d, sup-norm error %.4f on [%g, %g]\n",
		report.Method, report.Degree, report.MaxError, report.Lo, report.Hi)

	sys, err := fl.NewSystem(fl.Config{
		InputSize:     traffic.NumFeatures,
		LocalEpochs:   5,
		LocalRate:     0.2,
		DistillEpochs: 30,
		DistillRate:   0.2,
		ServerStep:    0.5,
		Seed:          14,
	}, parts, refDS.Features(), approx.FromPolynomial("ls-1", poly))
	if err != nil {
		log.Fatal(err)
	}
	scheme, err := core.NewScheme(refDS.Features(), core.SchemeConfig{
		NumVehicles: vehicles,
		NumBatches:  16,
		Degree:      1,
		Seed:        15,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("L-CoFL: V=%d, M=16, K=%d, E-security budget %d vehicles\n\n",
		vehicles, scheme.RecoverThreshold(), scheme.MaxMalicious())

	for r := 1; r <= 15; r++ {
		stats, err := sys.RunRound(scheme, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		acc, err := sys.Accuracy(test.Samples)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %2d: local loss %.3f, distill loss %.3f, test accuracy %.3f\n",
			r, stats.MeanLocalLoss, stats.DistillLoss, acc)
		if flagged := scheme.SuspectedMalicious(); len(flagged) > 0 {
			fmt.Fprintf(os.Stderr, "round %d: honest vehicles %v flagged as malicious\n", r, flagged)
			os.Exit(1)
		}
	}

	mean, err := sys.MeanEstimate(test.Features())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal mean traffic-slowness estimation over the test window: %.3f\n", mean)
}
