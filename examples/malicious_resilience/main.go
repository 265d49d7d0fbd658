// Malicious resilience: the paper's Fig. 4 scenario as library code.
//
// Two identical FL deployments train side by side with 30% of the fleet
// lying about every upload. The plain deployment averages the lies into
// its model; the L-CoFL deployment identifies the liars on the coded
// verification channel (eq. 6) and excludes them, so its model tracks the
// honest ideal. The program exits non-zero unless, in every round, the
// vehicles L-CoFL flags are exactly the planted liars.
//
// Run: go run ./examples/malicious_resilience
package main

import (
	"fmt"
	"log"
	"os"
	"slices"

	"repro/internal/adversary"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/traffic"
)

func main() {
	const (
		vehicles      = 100
		maliciousFrac = 0.3
		rounds        = 12
	)

	ds, err := traffic.Generate(traffic.GenConfig{Rows: 3000, Seed: 20})
	if err != nil {
		log.Fatal(err)
	}
	train, test, err := ds.Split(0.8, 21)
	if err != nil {
		log.Fatal(err)
	}
	refDS, err := traffic.Generate(traffic.GenConfig{Rows: 16 * 8, Seed: 22})
	if err != nil {
		log.Fatal(err)
	}
	refX := refDS.Features()
	parts, err := train.PartitionIID(vehicles, 23)
	if err != nil {
		log.Fatal(err)
	}
	exact := approx.SymmetricSigmoid()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(exact.F, -2, 2, 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := fl.Config{
		InputSize:     traffic.NumFeatures,
		LocalEpochs:   5,
		LocalRate:     0.2,
		DistillEpochs: 30,
		DistillRate:   0.2,
		ServerStep:    0.5,
		Seed:          24,
	}
	newSystem := func() *fl.System {
		sys, err := fl.NewSystem(cfg, parts, refX, approx.FromPolynomial("ls-1", p))
		if err != nil {
			log.Fatal(err)
		}
		return sys
	}
	plainSys, codedSys, idealSys := newSystem(), newSystem(), newSystem()

	plainScheme, err := fl.NewPlainScheme(refX)
	if err != nil {
		log.Fatal(err)
	}
	idealScheme, err := fl.NewPlainScheme(refX)
	if err != nil {
		log.Fatal(err)
	}
	codedScheme, err := core.NewScheme(refX, core.SchemeConfig{
		NumVehicles: vehicles, NumBatches: 16, Degree: 1, Seed: 25,
	})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := adversary.NewPlan(vehicles, maliciousFrac, adversary.ConstantLie{Value: 5}, 26)
	if err != nil {
		log.Fatal(err)
	}
	planted := plan.IDs()
	slices.Sort(planted) // SuspectedMalicious lists IDs in ascending order
	fmt.Printf("%d of %d vehicles lie every round (budget: %d)\n\n",
		plan.Count(), vehicles, codedScheme.MaxMalicious())
	fmt.Println("round   ideal   plain(attacked)   l-cofl(attacked)   flagged")

	var missed []int // rounds whose flagged set was not the planted one
	for r := 1; r <= rounds; r++ {
		if _, err := idealSys.RunRound(idealScheme, nil, nil); err != nil {
			log.Fatal(err)
		}
		if _, err := plainSys.RunRound(plainScheme, plan, nil); err != nil {
			log.Fatal(err)
		}
		if _, err := codedSys.RunRound(codedScheme, plan, nil); err != nil {
			log.Fatal(err)
		}
		ia, err := idealSys.Accuracy(test.Samples)
		if err != nil {
			log.Fatal(err)
		}
		pa, err := plainSys.Accuracy(test.Samples)
		if err != nil {
			log.Fatal(err)
		}
		ca, err := codedSys.Accuracy(test.Samples)
		if err != nil {
			log.Fatal(err)
		}
		flagged := codedScheme.SuspectedMalicious()
		if !slices.Equal(flagged, planted) {
			missed = append(missed, r)
		}
		fmt.Printf("%5d   %.3f   %.3f             %.3f              %d\n",
			r, ia, pa, ca, len(flagged))
	}
	fmt.Println("\nplain FL absorbs the lies into its shared model; L-CoFL's")
	fmt.Println("Reed-Solomon verification removes them (paper Fig. 4).")
	if len(missed) > 0 {
		fmt.Fprintf(os.Stderr, "rounds %v: L-CoFL did not flag exactly the %d planted liars\n", missed, len(planted))
		os.Exit(1)
	}
}
