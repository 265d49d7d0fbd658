package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Options scales the harness: the zero value reproduces the paper's
// configuration; smaller fleets, rounds and datasets make smoke runs.
type Options struct {
	// Vehicles is the fleet size V (0 → 100).
	Vehicles int
	// Rounds per run (0 → 15).
	Rounds int
	// Rows sizes the dataset (0 → 2500).
	Rows int
	// Seed shifts every run's randomness.
	Seed int64
	// Obs attaches the observability layer to every run launched through
	// these options. Nil disables instrumentation.
	Obs *obs.Obs
}

func (o Options) scenario() Scenario {
	return Scenario{
		Vehicles: o.Vehicles,
		Rounds:   o.Rounds,
		Rows:     o.Rows,
		Seed:     o.Seed,
		Obs:      o.Obs,
	}
}

// relErrTrace turns accuracy traces into the paper's per-round relative
// error against the ideal run.
func relErrTrace(model, ideal metrics.Trace) []float64 {
	n := len(model.Values)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = metrics.RelativeError(model.Values[i], ideal.Values[i])
	}
	return out
}

// Fig2 reproduces "Convergence of relative error of L-CoFL with different
// degrees of the approximation functions and the related work in [32]":
// per-round relative error for L-CoFL at degrees 1–3 plus the
// random-linear baseline, all without malicious vehicles.
func Fig2(o Options) (*Figure, error) {
	sc := o.scenario()
	ideal, err := sc.Run(Accurate)
	if err != nil {
		return nil, err
	}
	// Degrees requiring K = d·(M−1)+1 beyond the fleet are infeasible by
	// eq. 6 and skipped (affects shrunken benchmark fleets only).
	v := sc.withDefaults().Vehicles
	m := sc.withDefaults().Batches
	var degrees []int
	for _, d := range []int{1, 2, 3} {
		if d*(m-1)+1 <= v {
			degrees = append(degrees, d)
		}
	}
	cols := []string{"round"}
	for _, d := range degrees {
		cols = append(cols, fmt.Sprintf("lcofl_deg%d", d))
	}
	cols = append(cols, "codedfl24")
	fig := &Figure{
		Name:    "fig2",
		Title:   "relative error vs round: L-CoFL degrees 1-3 and the [32] baseline (no malicious)",
		Columns: cols,
	}
	var series [][]float64
	for _, d := range degrees {
		s := sc
		s.Degree = d
		out, err := s.Run(LCoFL)
		if err != nil {
			return nil, err
		}
		series = append(series, relErrTrace(out.Acc, ideal.Acc))
	}
	baseline, err := sc.Run(CodedFL24)
	if err != nil {
		return nil, err
	}
	series = append(series, relErrTrace(baseline.Acc, ideal.Acc))
	for r := 0; r < len(ideal.Acc.Values); r++ {
		row := []float64{float64(r + 1)}
		for _, s := range series {
			row = append(row, s[r])
		}
		if err := fig.AddRow(row...); err != nil {
			return nil, err
		}
	}
	return fig, nil
}

// Fig3 reproduces "Relative error of the comparison models without
// malicious vehicles in the system having different numbers of vehicles".
// Plain FL carries the paper's injected input noise so its error floor is
// visible; L-CoFL and approximation-only coincide because nothing needs
// correcting.
func Fig3(o Options) (*Figure, error) {
	fig := &Figure{
		Name:    "fig3",
		Title:   "relative error vs fleet size (no malicious)",
		Columns: []string{"vehicles", "plain_fl", "approx_only", "lcofl"},
	}
	counts := []int{20, 40, 60, 80, 100}
	if o.Vehicles != 0 {
		counts = []int{o.Vehicles / 2, o.Vehicles}
	}
	for _, v := range counts {
		sc := o.scenario()
		sc.Vehicles = v
		sc.PlainInputNoise = 0.2
		ideal, err := sc.Run(Accurate)
		if err != nil {
			return nil, err
		}
		row := []float64{float64(v)}
		for _, variant := range []Variant{PlainFL, ApproxOnly, LCoFL} {
			out, err := sc.Run(variant)
			if err != nil {
				return nil, err
			}
			row = append(row, metrics.RelativeError(out.Acc.TailMean(5), ideal.Acc.TailMean(5)))
		}
		if err := fig.AddRow(row...); err != nil {
			return nil, err
		}
	}
	return fig, nil
}

// Fig4 reproduces "Convergence of estimation results of the shared NN
// model during the training process, with 30% of malicious vehicles":
// the per-round mean estimation over the test set for plain FL (which
// fluctuates under poisoning) and L-CoFL (which stays near the accurate
// trace).
func Fig4(o Options) (*Figure, error) {
	sc := o.scenario()
	sc.MaliciousFraction = 0.3
	ideal := sc
	ideal.MaliciousFraction = 0
	accRun, err := ideal.Run(Accurate)
	if err != nil {
		return nil, err
	}
	plainRun, err := sc.Run(PlainFL)
	if err != nil {
		return nil, err
	}
	lcoflRun, err := sc.Run(LCoFL)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		Name:    "fig4",
		Title:   "mean estimation result vs round with 30% malicious vehicles",
		Columns: []string{"round", "accurate", "plain_fl", "lcofl"},
	}
	for r := 0; r < len(accRun.MeanEst.Values); r++ {
		if err := fig.AddRow(float64(r+1), accRun.MeanEst.Values[r], plainRun.MeanEst.Values[r], lcoflRun.MeanEst.Values[r]); err != nil {
			return nil, err
		}
	}
	// Stability note: the paper's claim is that L-CoFL's trace is the
	// steadier one.
	fig.AddNote("std(plain)=%.4f std(lcofl)=%.4f", metrics.Summarize(plainRun.MeanEst.Values).Std, metrics.Summarize(lcoflRun.MeanEst.Values).Std)
	return fig, nil
}

// maliciousSweep runs the three comparison models across malicious
// fractions and hands each run to collect. degree 0 keeps the scenario
// default.
func maliciousSweep(o Options, degree int, fractions []float64, collect func(frac float64, ideal *RunOutput, runs map[Variant]*RunOutput) error) error {
	for _, frac := range fractions {
		sc := o.scenario()
		sc.Degree = degree
		sc.MaliciousFraction = frac
		idealSc := sc
		idealSc.MaliciousFraction = 0
		ideal, err := idealSc.Run(Accurate)
		if err != nil {
			return err
		}
		runs := map[Variant]*RunOutput{}
		for _, v := range []Variant{PlainFL, ApproxOnly, LCoFL} {
			out, err := sc.Run(v)
			if err != nil {
				return err
			}
			runs[v] = out
		}
		if err := collect(frac, ideal, runs); err != nil {
			return err
		}
	}
	return nil
}

// sweepFractions is the paper's malicious-rate axis (Figs. 5, 6, 9).
var sweepFractions = []float64{0.1, 0.2, 0.3, 0.4, 0.5}

// Fig5 reproduces "Relative error of the comparison schemes with
// different percentages of malicious vehicles" (10–50%).
func Fig5(o Options) (*Figure, error) {
	fig := &Figure{
		Name:    "fig5",
		Title:   "relative error vs malicious fraction",
		Columns: []string{"malicious_frac", "plain_fl", "approx_only", "lcofl"},
	}
	err := maliciousSweep(o, 0, sweepFractions, func(frac float64, ideal *RunOutput, runs map[Variant]*RunOutput) error {
		idealAcc := ideal.Acc.TailMean(5)
		return fig.AddRow(frac,
			metrics.RelativeError(runs[PlainFL].Acc.TailMean(5), idealAcc),
			metrics.RelativeError(runs[ApproxOnly].Acc.TailMean(5), idealAcc),
			metrics.RelativeError(runs[LCoFL].Acc.TailMean(5), idealAcc),
		)
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// Fig6 reproduces "Average absolute error of the comparison models with
// different percentages of malicious vehicles": mean |π̂ − y| over the
// test set.
func Fig6(o Options) (*Figure, error) {
	fig := &Figure{
		Name:    "fig6",
		Title:   "average absolute estimation error vs malicious fraction",
		Columns: []string{"malicious_frac", "plain_fl", "approx_only", "lcofl", "accurate"},
	}
	// Degree 3, matching the paper's Fig. 6 claim that L-CoFL is secure
	// against up to 30% malicious vehicles (E = 27 of V = 100 at K = 46).
	// Shrunken fleets (quick/benchmark runs) cannot satisfy K = 46 ≤ V and
	// fall back to degree 1.
	degree := 3
	if o.Vehicles != 0 && o.Vehicles < 3*15+1 {
		degree = 1
	}
	err := maliciousSweep(o, degree, sweepFractions, func(frac float64, ideal *RunOutput, runs map[Variant]*RunOutput) error {
		mae := func(out *RunOutput) float64 {
			return metrics.MeanAbsoluteError(out.TestEstimates, out.TestLabels)
		}
		return fig.AddRow(frac, mae(runs[PlainFL]), mae(runs[ApproxOnly]), mae(runs[LCoFL]), mae(ideal))
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// Fig7 reproduces "Comparison of estimation result distribution among the
// comparison models": the PDF of final per-sample estimations at 30%
// malicious, for the accurate, plain, approximation-only and L-CoFL
// models, plus each model's overlap with the accurate density.
func Fig7(o Options) (*Figure, error) {
	sc := o.scenario()
	sc.MaliciousFraction = 0.3
	idealSc := sc
	idealSc.MaliciousFraction = 0
	ideal, err := idealSc.Run(Accurate)
	if err != nil {
		return nil, err
	}
	runs := map[Variant]*RunOutput{Accurate: ideal}
	for _, v := range []Variant{PlainFL, ApproxOnly, LCoFL} {
		out, err := sc.Run(v)
		if err != nil {
			return nil, err
		}
		runs[v] = out
	}
	const bins = 20
	hist := func(v Variant) (*metrics.Histogram, error) {
		h, err := metrics.NewHistogram(0, 1, bins)
		if err != nil {
			return nil, err
		}
		h.AddAll(runs[v].TestEstimates)
		return h, nil
	}
	order := []Variant{Accurate, PlainFL, ApproxOnly, LCoFL}
	hists := map[Variant]*metrics.Histogram{}
	for _, v := range order {
		h, err := hist(v)
		if err != nil {
			return nil, err
		}
		hists[v] = h
	}
	fig := &Figure{
		Name:    "fig7",
		Title:   "PDF of estimation results with 30% malicious vehicles",
		Columns: []string{"estimate_bin", "accurate", "plain_fl", "approx_only", "lcofl"},
	}
	centers := hists[Accurate].BinCenters()
	dens := map[Variant][]float64{}
	for _, v := range order {
		dens[v] = hists[v].Density()
	}
	for b := 0; b < bins; b++ {
		if err := fig.AddRow(centers[b], dens[Accurate][b], dens[PlainFL][b], dens[ApproxOnly][b], dens[LCoFL][b]); err != nil {
			return nil, err
		}
	}
	for _, v := range []Variant{PlainFL, ApproxOnly, LCoFL} {
		ov, err := hists[Accurate].Overlap(hists[v])
		if err != nil {
			return nil, err
		}
		fig.AddNote("overlap(%s, accurate) = %.3f", v, ov)
	}
	return fig, nil
}

// Fig8 reproduces "Comparison of relative error distribution among the
// comparison models": the PDF of per-sample |π̂_model − π̂_accurate| at
// 30% malicious.
func Fig8(o Options) (*Figure, error) {
	sc := o.scenario()
	sc.MaliciousFraction = 0.3
	idealSc := sc
	idealSc.MaliciousFraction = 0
	ideal, err := idealSc.Run(Accurate)
	if err != nil {
		return nil, err
	}
	const bins = 20
	fig := &Figure{
		Name:    "fig8",
		Title:   "PDF of per-sample relative error with 30% malicious vehicles",
		Columns: []string{"error_bin", "plain_fl", "approx_only", "lcofl"},
	}
	hists := map[Variant]*metrics.Histogram{}
	for _, v := range []Variant{PlainFL, ApproxOnly, LCoFL} {
		out, err := sc.Run(v)
		if err != nil {
			return nil, err
		}
		h, err := metrics.NewHistogram(0, 0.5, bins)
		if err != nil {
			return nil, err
		}
		for i := range out.TestEstimates {
			h.Add(math.Abs(out.TestEstimates[i] - ideal.TestEstimates[i]))
		}
		hists[v] = h
		fig.AddNote("median |err| %s = %.3f", v, metrics.Summarize(absDiff(out.TestEstimates, ideal.TestEstimates)).Median)
	}
	centers := hists[PlainFL].BinCenters()
	dp, da, dl := hists[PlainFL].Density(), hists[ApproxOnly].Density(), hists[LCoFL].Density()
	for b := 0; b < bins; b++ {
		if err := fig.AddRow(centers[b], dp[b], da[b], dl[b]); err != nil {
			return nil, err
		}
	}
	return fig, nil
}

func absDiff(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = math.Abs(a[i] - b[i])
	}
	return out
}

// Fig9 reproduces "Computing cost/redundancy with different degrees of
// approximation function and different rates of malicious vehicles":
// the Proposition 1 cost model per piece of data, over degrees 1–4 and
// malicious rates 0–50%.
func Fig9(o Options) (*Figure, error) {
	v := o.Vehicles
	if v == 0 {
		v = 100
	}
	fig := &Figure{
		Name:    "fig9",
		Title:   "computing cost per data piece vs approximation degree and malicious rate",
		Columns: []string{"malicious_frac", "deg1", "deg2", "deg3", "deg4"},
	}
	for _, frac := range append([]float64{0}, sweepFractions...) {
		row := []float64{frac}
		for d := 1; d <= 4; d++ {
			c := core.Cost{
				V:            v,
				M:            16,
				Degree:       d,
				ApproxPoints: 21,
				Errors:       int(frac * float64(v)),
			}
			row = append(row, c.PerDataPiece())
		}
		if err := fig.AddRow(row...); err != nil {
			return nil, err
		}
	}
	return fig, nil
}

// All runs every figure driver in order.
func All(o Options) ([]*Figure, error) {
	type driver struct {
		name string
		fn   func(Options) (*Figure, error)
	}
	drivers := []driver{
		{"fig2", Fig2}, {"fig3", Fig3}, {"fig4", Fig4}, {"fig5", Fig5},
		{"fig6", Fig6}, {"fig7", Fig7}, {"fig8", Fig8}, {"fig9", Fig9},
		{"ext-channel", ExtChannel}, {"ext-mobility", ExtMobility}, {"ext-noniid", ExtNonIID}, {"ext-latency", ExtLatency},
	}
	var out []*Figure
	for _, d := range drivers {
		fig, err := d.fn(o)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", d.name, err)
		}
		out = append(out, fig)
	}
	return out, nil
}

// ByName returns the driver for a figure name ("fig2".."fig9").
func ByName(name string) (func(Options) (*Figure, error), error) {
	switch name {
	case "fig2":
		return Fig2, nil
	case "fig3":
		return Fig3, nil
	case "fig4":
		return Fig4, nil
	case "fig5":
		return Fig5, nil
	case "fig6":
		return Fig6, nil
	case "fig7":
		return Fig7, nil
	case "fig8":
		return Fig8, nil
	case "fig9":
		return Fig9, nil
	case "ext-channel":
		return ExtChannel, nil
	case "ext-mobility":
		return ExtMobility, nil
	case "ext-noniid":
		return ExtNonIID, nil
	case "ext-latency":
		return ExtLatency, nil
	}
	return nil, fmt.Errorf("experiments: unknown figure %q (want fig2..fig9, ext-channel, ext-mobility)", name)
}
