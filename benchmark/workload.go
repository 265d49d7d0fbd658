package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/approx"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/node"
	"repro/internal/parallel"
	"repro/internal/traffic"
)

// warmupRounds precede every timed window: pools fill, the Setup frame
// stops coalescing with broadcasts, and the straggler workload reaches
// its steady withhold/release cycle.
const warmupRounds = 10

// roundTimeout is node.ServerConfig.RoundTimeout, and no round here comes
// near it: rounds take 3 to 50 ms and the stragglers 100 ms. It is short
// because node.Server.Run arms one timer of this length every round and
// never stops it, and from the moment the first of them expires a session
// runs about a tenth slower (a step, not a drift). That is the state a
// long-lived fusion centre is in; with the issue's 10 s the step fell in
// the middle of every run, and which side of it the median landed on
// changed from run to run.
const roundTimeout = 2 * time.Second

// heldOutRows sizes the held-out set test_mse is taken on. It is generated
// on its own rather than split off the training rows: the workloads train
// on two to four thousand rows, and a 0.2 split of that makes test_mse
// move several percent from seed to seed by sampling alone.
const heldOutRows = 20000

// workload is one session shape. Everything a session needs beyond the
// seed is a field here, so the four shapes differ only in this table.
type workload struct {
	name string

	vehicles int
	batches  int // M; K = M for the degree-1 activation
	tcp      bool
	rows     int // training rows per vehicle
	epochs   int // local SGD epochs per round
	refRows  int

	// rounds is the timed window of one session, fixed so counts are
	// exactly comparable between runs and sized for about 5.5 s; a run
	// repeats sessions until the windows add up to -seconds. slice is how
	// many consecutive rounds make one sample of the timing metrics, about
	// half a second's worth; it divides rounds.
	rounds int
	slice  int

	maliciousFrac float64 // share of vehicles planted as ConstantLie{5}
	stragglers    int     // trailing vehicles delayed 100 ms per upload
	waitBudget    int     // node.ServerConfig.WaitBudget

	// allArrive marks workloads whose admitted set — and therefore
	// FinalParams — is a pure function of the seed.
	allArrive bool
}

// workloads is the fixed benchmark matrix; the names are cited by later
// issues and by BENCHMARK.json.
var workloads = []workload{
	{
		name:     "train-v16-pipe",
		vehicles: 16, batches: 8, rows: 240, epochs: 5, refRows: 192,
		rounds: 1000, slice: 100, allArrive: true,
	},
	{
		name:     "decode-v64-adv",
		vehicles: 64, batches: 16, rows: 48, epochs: 1, refRows: 768,
		rounds: 132, slice: 12, maliciousFrac: 0.3, allArrive: true,
	},
	{
		name:     "fanout-v256-tcp",
		vehicles: 256, batches: 8, tcp: true, rows: 8, epochs: 1, refRows: 64,
		rounds: 550, slice: 50, allArrive: true,
	},
	{
		name:     "straggle-v32-budget",
		vehicles: 32, batches: 8, rows: 120, epochs: 5, refRows: 192,
		rounds: 1200, slice: 100, stragglers: 8, waitBudget: 16,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is everything generated from the seed; the program under test
// receives only this.
type inputs struct {
	w          workload
	parts      [][]nn.Sample
	refX       [][]float64
	activation []float64
	flCfg      fl.Config
	scheme     core.SchemeConfig
	planted    []int // sorted malicious vehicle IDs
	plan       *adversary.Plan
	chaosSpec  *chaos.Spec
	vehSeeds   []int64
}

// heldOut generates the set test_mse is taken on. It belongs to the
// harness, not to the session: it is the same for every workload and
// repetition of a seed, and runSession makes it before its clock starts.
func heldOut(seed int64) ([]nn.Sample, error) {
	ds, err := traffic.Generate(traffic.GenConfig{Rows: heldOutRows, Seed: parallel.SplitSeeds(seed, 8)[1]})
	if err != nil {
		return nil, err
	}
	return ds.Samples, nil
}

// generate derives every dataset, partition, scheme, adversary-plan and
// chaos seed from the one benchmark seed.
func generate(w workload, seed int64) (*inputs, error) {
	seeds := parallel.SplitSeeds(seed, 8)
	train, err := traffic.Generate(traffic.GenConfig{Rows: w.rows * w.vehicles, Seed: seeds[0]})
	if err != nil {
		return nil, err
	}
	parts, err := train.PartitionIID(w.vehicles, seeds[2])
	if err != nil {
		return nil, err
	}
	refDS, err := traffic.Generate(traffic.GenConfig{Rows: w.refRows, Seed: seeds[3]})
	if err != nil {
		return nil, err
	}
	act, err := approx.LeastSquares{SamplePoints: 21}.Fit(approx.SymmetricSigmoid().F, -2, 2, 1)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		w:          w,
		parts:      parts,
		refX:       refDS.Features(),
		activation: act,
		flCfg: fl.Config{
			InputSize:     traffic.NumFeatures,
			LocalEpochs:   w.epochs,
			LocalRate:     0.2,
			DistillEpochs: 20,
			DistillRate:   0.2,
			ServerStep:    0.5,
			Seed:          seeds[4],
		},
		scheme: core.SchemeConfig{
			NumVehicles: w.vehicles, NumBatches: w.batches, Degree: 1, Seed: seeds[5],
		},
		vehSeeds: parallel.SplitSeeds(seeds[6], w.vehicles),
	}
	if w.maliciousFrac > 0 {
		in.plan, err = adversary.NewPlan(w.vehicles, w.maliciousFrac, adversary.ConstantLie{Value: 5}, seeds[7])
		if err != nil {
			return nil, err
		}
		in.planted = in.plan.IDs()
		sort.Ints(in.planted)
	}
	if w.stragglers > 0 {
		var b strings.Builder
		fmt.Fprintf(&b, "seed=%d", seeds[7])
		for id := w.vehicles - w.stragglers; id < w.vehicles; id++ {
			fmt.Fprintf(&b, ";delay.upload@%d=1:100ms", id)
		}
		in.chaosSpec, err = chaos.Parse(b.String())
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// serverConfig is the fusion-centre configuration for a session of the
// given total length (warm-up included).
func (in *inputs) serverConfig(rounds int) node.ServerConfig {
	return node.ServerConfig{
		FL:               in.flCfg,
		Scheme:           in.scheme,
		RefX:             in.refX,
		ActivationCoeffs: in.activation,
		Rounds:           rounds,
		RoundTimeout:     roundTimeout,
		WaitBudget:       in.w.waitBudget,
	}
}

func (in *inputs) clientConfig(id int) node.ClientConfig {
	cc := node.ClientConfig{VehicleID: id, Data: in.parts[id], Seed: in.vehSeeds[id]}
	if in.plan != nil && in.plan.IsMalicious(id) {
		cc.Corrupt = adversary.ConstantLie{Value: 5}
	}
	return cc
}

// testMSE is the mean squared error of the model's clamped estimates on
// the held-out split.
func testMSE(m *nn.Network, test []nn.Sample) (float64, error) {
	var sum float64
	for _, s := range test {
		pi, err := m.EstimateClamped(s.X)
		if err != nil {
			return 0, err
		}
		sum += (pi - s.Y) * (pi - s.Y)
	}
	return sum / float64(len(test)), nil
}
