package experiments

import (
	"repro/internal/channel"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/traffic"
)

// The paper's threat model lists three system-noise sources: malicious
// vehicles (Figs. 4–8), low-quality data (Fig. 3's injected noise), and
// wireless channel errors plus mobility-induced straggling (discussed in
// §I/§III but not separately evaluated). The two extension experiments
// below close that gap; they are additional to the paper's figures and
// recorded as such in EXPERIMENTS.md.

// ExtChannel sweeps the wireless burst-corruption probability: each
// uploaded scalar is independently replaced by garbage with probability
// p. L-CoFL's verification channel detects a corrupted vehicle-round and
// excludes it (a channel error is indistinguishable from a lie — exactly
// the paper's point); plain FL averages the garbage into its model.
func ExtChannel(o Options) (*Figure, error) {
	fig := &Figure{
		Name:    "ext-channel",
		Title:   "relative error vs wireless burst-corruption probability (no malicious vehicles)",
		Columns: []string{"burst_prob", "plain_fl", "lcofl", "lcofl_flagged_per_round"},
	}
	for _, p := range []float64{0, 0.001, 0.005, 0.02} {
		sc := o.scenario()
		mkChannel := func(seed int64) (channel.Model, error) {
			if p == 0 {
				return channel.Perfect{}, nil
			}
			return channel.NewBurst(p, 10, seed)
		}
		idealSc := sc // perfect channel, plain scheme
		ideal, err := idealSc.Run(Accurate)
		if err != nil {
			return nil, err
		}
		chPlain, err := mkChannel(sc.Seed + 40)
		if err != nil {
			return nil, err
		}
		scPlain := sc
		scPlain.Channel = chPlain
		plain, err := scPlain.Run(PlainFL)
		if err != nil {
			return nil, err
		}
		chCoded, err := mkChannel(sc.Seed + 41)
		if err != nil {
			return nil, err
		}
		scCoded := sc
		scCoded.Channel = chCoded
		coded, err := scCoded.Run(LCoFL)
		if err != nil {
			return nil, err
		}
		idealAcc := ideal.Acc.TailMean(5)
		if err := fig.AddRow(p,
			metrics.RelativeError(plain.Acc.TailMean(5), idealAcc),
			metrics.RelativeError(coded.Acc.TailMean(5), idealAcc),
			float64(coded.SuspectedMalicious),
		); err != nil {
			return nil, err
		}
	}
	return fig, nil
}

// ExtMobility runs the full IoV mobility simulation: vehicles start
// inside the fusion centre's coverage and drift; out-of-coverage vehicles
// become stragglers. The coded aggregation decodes from the reachable
// subset as long as it stays above the recover threshold, so accuracy
// holds while the reachable count shrinks.
func ExtMobility(o Options) (*Figure, error) {
	sc := o.scenario()
	sc.Mobility = true
	idealSc := o.scenario() // static fleet
	ideal, err := idealSc.Run(Accurate)
	if err != nil {
		return nil, err
	}
	coded, err := sc.Run(LCoFL)
	if err != nil {
		return nil, err
	}
	scM := sc
	scM.MaliciousFraction = 0.2
	codedAttacked, err := scM.Run(LCoFL)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		Name:    "ext-mobility",
		Title:   "accuracy vs round under random-waypoint mobility (stragglers from coverage gaps)",
		Columns: []string{"round", "static_accurate", "lcofl_mobile", "lcofl_mobile_20pct_malicious"},
	}
	for r := 0; r < len(ideal.Acc.Values); r++ {
		if err := fig.AddRow(float64(r+1), ideal.Acc.Values[r], coded.Acc.Values[r], codedAttacked.Acc.Values[r]); err != nil {
			return nil, err
		}
	}
	fig.AddNote("mobility drops vehicles out of coverage; the coded aggregation tolerates the missing uploads as stragglers")
	return fig, nil
}

// ExtNonIID sweeps the time-of-day data skew: vehicles observing only
// narrow time windows make local models heterogeneous, the classic FL
// stressor. The verification channel is unaffected (it evaluates the
// common broadcast model), so L-CoFL under 20 % malicious is compared
// against the unattacked ideal at each skew level.
func ExtNonIID(o Options) (*Figure, error) {
	fig := &Figure{
		Name:    "ext-noniid",
		Title:   "accuracy vs time-of-day data skew (IID=0 .. fully sorted=1)",
		Columns: []string{"skew", "accurate", "lcofl_20pct_malicious"},
	}
	for _, skew := range []float64{0, 0.5, 0.9, 1} {
		sc := o.scenario()
		sc.NonIIDSkew = skew
		ideal, err := sc.Run(Accurate)
		if err != nil {
			return nil, err
		}
		scM := sc
		scM.MaliciousFraction = 0.2
		coded, err := scM.Run(LCoFL)
		if err != nil {
			return nil, err
		}
		if err := fig.AddRow(skew, ideal.Acc.TailMean(5), coded.Acc.TailMean(5)); err != nil {
			return nil, err
		}
	}
	return fig, nil
}

// ExtLatency quantifies the paper's §II lightweightness argument: the
// analytic per-round latency (package latency) of L-CoFL's coded
// verification versus the BFT-consensus alternative and plain parameter
// FedAvg, swept over the fleet size.
func ExtLatency(o Options) (*Figure, error) {
	fig := &Figure{
		Name:    "ext-latency",
		Title:   "modelled per-round latency (s) vs fleet size: L-CoFL vs BFT verification vs FedAvg",
		Columns: []string{"vehicles", "lcofl_s", "bft_s", "fedavg_s", "bft_over_lcofl"},
	}
	counts := []int{20, 40, 60, 80, 100, 150, 200}
	if o.Vehicles != 0 {
		counts = []int{o.Vehicles / 2, o.Vehicles}
	}
	for _, v := range counts {
		sc := latency.Scenario{
			Vehicles:      v,
			Batches:       16,
			Degree:        1,
			UploadScalars: 2*8 + 128, // the core.Scheme upload at 8·16 reference rows
			Errors:        v / 10,
		}
		coded, err := latency.LCoFL(sc, latency.Params{})
		if err != nil {
			return nil, err
		}
		bft, err := latency.BFT(sc, latency.Params{})
		if err != nil {
			return nil, err
		}
		fedavg, err := latency.ParameterFL(sc, latency.Params{}, traffic.NumFeatures+1)
		if err != nil {
			return nil, err
		}
		if err := fig.AddRow(float64(v), coded.Total, bft.Total, fedavg.Total, bft.Total/coded.Total); err != nil {
			return nil, err
		}
	}
	fig.AddNote("analytic model: 1 MB/s uplink, 20 ms per message, embedded vehicle compute; see internal/latency")
	return fig, nil
}
