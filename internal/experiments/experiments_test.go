package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// quick shrinks every run so the whole suite stays test-sized.
func quick() Options {
	return Options{Vehicles: 40, Rounds: 6, Rows: 1200, Seed: 5}
}

func TestScenarioDefaults(t *testing.T) {
	sc := Scenario{}.withDefaults()
	if sc.Vehicles != 100 || sc.Batches != 16 || sc.Degree != 1 {
		t.Errorf("defaults wrong: %+v", sc)
	}
}

// setProcs runs the rest of the test at GOMAXPROCS n, the width of every
// pool in the program, and restores the old setting when the test ends.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestRunUnknownVariant(t *testing.T) {
	sc := Scenario{Vehicles: 20, Rounds: 1, Rows: 600, Seed: 1}
	if _, err := sc.Run(Variant("nope")); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestRunAccurateAndLCoFL(t *testing.T) {
	sc := Scenario{Vehicles: 30, Rounds: 4, Rows: 1000, Seed: 2}
	ideal, err := sc.Run(Accurate)
	if err != nil {
		t.Fatal(err)
	}
	if len(ideal.Acc.Values) != 4 || len(ideal.TestEstimates) != len(ideal.TestLabels) {
		t.Fatalf("run shape wrong: %+v", ideal)
	}
	scM := sc
	scM.MaliciousFraction = 0.2
	out, err := scM.Run(LCoFL)
	if err != nil {
		t.Fatal(err)
	}
	if out.DecodeFailures != 0 {
		t.Errorf("decode failures: %d", out.DecodeFailures)
	}
	if out.SuspectedMalicious != 6 { // 20% of 30
		t.Errorf("suspected = %d, want 6", out.SuspectedMalicious)
	}
}

func TestFigureAddRowValidates(t *testing.T) {
	f := &Figure{Name: "x", Columns: []string{"a", "b"}}
	if err := f.AddRow(1); err == nil {
		t.Error("short row accepted")
	}
	if err := f.AddRow(1, 2); err != nil {
		t.Error(err)
	}
}

func TestFigureWriteTSV(t *testing.T) {
	f := &Figure{Name: "figX", Title: "demo", Columns: []string{"a", "b"}}
	f.AddNote("hello %d", 7)
	if err := f.AddRow(1, 2.5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{"# figX: demo", "# note: hello 7", "a\tb", "1\t2.5"} {
		if !strings.Contains(got, want) {
			t.Errorf("TSV missing %q:\n%s", want, got)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	fig, err := Fig4(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(fig.Rows))
	}
	if len(fig.Columns) != 4 {
		t.Fatalf("columns = %v", fig.Columns)
	}
	if len(fig.Notes) == 0 {
		t.Error("fig4 missing stability note")
	}
}

func TestFig5ShapeAndOrdering(t *testing.T) {
	fig, err := Fig5(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != len(sweepFractions) {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	// The headline claim at 30% malicious (row index 2): L-CoFL's
	// relative error is the smallest of the three models.
	row := fig.Rows[2]
	plain, approxOnly, lcofl := row[1], row[2], row[3]
	if lcofl >= plain || lcofl >= approxOnly {
		t.Errorf("at 30%% malicious lcofl=%.3f not below plain=%.3f approx=%.3f", lcofl, plain, approxOnly)
	}
}

func TestFig9Shape(t *testing.T) {
	fig, err := Fig9(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 6 { // 0% plus the 5 sweep fractions
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	// Cost grows along both axes.
	for _, row := range fig.Rows {
		for c := 2; c < len(row); c++ {
			if row[c] <= row[c-1] {
				t.Errorf("cost not increasing with degree: %v", row)
			}
		}
	}
	first, last := fig.Rows[0], fig.Rows[len(fig.Rows)-1]
	if last[1] <= first[1] {
		t.Errorf("cost not increasing with malicious rate: %v vs %v", first, last)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%s): %v", name, err)
		}
	}
	if _, err := ByName("fig1"); err == nil {
		t.Error("fig1 accepted (it is the architecture diagram)")
	}
}

func TestExtChannelShape(t *testing.T) {
	fig, err := ExtChannel(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 4 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	// Flagged count must grow with the corruption probability: channel
	// errors present as erroneous results and are excluded.
	flaggedAtZero := fig.Rows[0][3]
	flaggedAtMax := fig.Rows[len(fig.Rows)-1][3]
	if flaggedAtZero != 0 {
		t.Errorf("flagged %v vehicles on a perfect channel", flaggedAtZero)
	}
	if flaggedAtMax <= flaggedAtZero {
		t.Errorf("flagged count did not grow with corruption: %v -> %v", flaggedAtZero, flaggedAtMax)
	}
}

func TestExtMobilityShape(t *testing.T) {
	fig, err := ExtMobility(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 6 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	if len(fig.Columns) != 4 {
		t.Fatalf("columns = %v", fig.Columns)
	}
}

func TestScenarioMobilityRuns(t *testing.T) {
	sc := Scenario{Vehicles: 30, Rounds: 3, Rows: 900, Seed: 9, Mobility: true}
	out, err := sc.Run(LCoFL)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Acc.Values) != 3 {
		t.Fatalf("trace length %d", len(out.Acc.Values))
	}
}

func TestExtLatencyShape(t *testing.T) {
	fig, err := ExtLatency(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		lcofl, bft, fedavg, ratio := row[1], row[2], row[3], row[4]
		if bft <= lcofl {
			t.Errorf("V=%v: BFT %g not above L-CoFL %g", row[0], bft, lcofl)
		}
		if lcofl <= 0 || fedavg <= 0 || ratio <= 1 {
			t.Errorf("implausible row %v", row)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	fig, err := Fig2(quick())
	if err != nil {
		t.Fatal(err)
	}
	// quick() uses V=40: only degrees 1 and 2 satisfy eq. 6, so the
	// columns are round + two L-CoFL series + the baseline.
	if len(fig.Rows) != 6 || len(fig.Columns) != 4 {
		t.Fatalf("shape %dx%d (%v)", len(fig.Rows), len(fig.Columns), fig.Columns)
	}
	// Relative errors are bounded: every model converges somewhere near
	// the ideal without malicious vehicles.
	for _, row := range fig.Rows {
		for c := 1; c < len(row); c++ {
			if row[c] < 0 || row[c] > 0.6 {
				t.Errorf("implausible relative error %g in %v", row[c], row)
			}
		}
	}
}

func TestFig3Shape(t *testing.T) {
	fig, err := Fig3(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 2 { // quick mode: V/2 and V
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	// The paper's identity: with no malicious vehicles, L-CoFL and
	// approximation-only coincide exactly.
	for _, row := range fig.Rows {
		if row[2] != row[3] {
			t.Errorf("approx-only %g != lcofl %g at V=%v", row[2], row[3], row[0])
		}
	}
}

func TestFig6Shape(t *testing.T) {
	fig, err := Fig6(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != len(sweepFractions) {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	for _, row := range fig.Rows {
		for c := 1; c < len(row); c++ {
			if row[c] < 0 || row[c] > 1 {
				t.Errorf("MAE %g outside [0,1] in %v", row[c], row)
			}
		}
	}
}

func TestFig7Shape(t *testing.T) {
	fig, err := Fig7(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 20 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	if len(fig.Notes) != 3 {
		t.Fatalf("notes = %d", len(fig.Notes))
	}
	// Each column is a density integrating to ~1 over [0,1].
	binWidth := 1.0 / 20
	for c := 1; c <= 4; c++ {
		var total float64
		for _, row := range fig.Rows {
			total += row[c] * binWidth
		}
		if total < 0.99 || total > 1.01 {
			t.Errorf("column %d density integral = %g", c, total)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	fig, err := Fig8(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 20 || len(fig.Columns) != 4 {
		t.Fatalf("shape %dx%d", len(fig.Rows), len(fig.Columns))
	}
	if len(fig.Notes) != 3 {
		t.Fatalf("notes = %d", len(fig.Notes))
	}
}

func TestRepeat(t *testing.T) {
	o := quick()
	fig, err := Repeat(Fig9, o, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Fig9: 5 columns → axis + 4·(mean, std) = 9.
	if len(fig.Columns) != 9 {
		t.Fatalf("columns = %v", fig.Columns)
	}
	// Fig9 is deterministic in the seed-independent cost model, so every
	// std must be zero and the means equal the single-seed values.
	single, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	for r := range fig.Rows {
		for c := 1; c+1 < len(fig.Rows[r]); c += 2 {
			if fig.Rows[r][c+1] != 0 {
				t.Errorf("deterministic driver produced std %g", fig.Rows[r][c+1])
			}
			if fig.Rows[r][c] != single.Rows[r][(c+1)/2] {
				t.Errorf("mean %g != single value %g", fig.Rows[r][c], single.Rows[r][(c+1)/2])
			}
		}
	}
	if len(fig.Notes) == 0 {
		t.Error("missing seeds note")
	}
}

func TestRepeatStochasticDriver(t *testing.T) {
	fig, err := Repeat(Fig4, quick(), []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy traces vary across seeds: some std must be positive.
	var anyStd float64
	for _, row := range fig.Rows {
		for c := 2; c < len(row); c += 2 {
			anyStd += row[c]
		}
	}
	if anyStd == 0 {
		t.Error("stochastic driver produced zero variance everywhere")
	}
}

func TestRepeatValidation(t *testing.T) {
	if _, err := Repeat(nil, quick(), []int64{1, 2}); err == nil {
		t.Error("nil driver accepted")
	}
	if _, err := Repeat(Fig9, quick(), []int64{1}); err == nil {
		t.Error("single seed accepted")
	}
}

// TestRunParallelDeterminism is the tentpole acceptance check: a full
// scenario run — training, adversary, channel, L-CoFL encode/decode —
// must be byte-identical at GOMAXPROCS 1, 2 and 8.
func TestRunParallelDeterminism(t *testing.T) {
	base := Scenario{Vehicles: 30, Rounds: 3, Rows: 900, Seed: 2, MaliciousFraction: 0.2}

	run := func(procs int) *RunOutput {
		t.Helper()
		setProcs(t, procs)
		out, err := base.Run(LCoFL)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		return out
	}
	want := run(1)
	for _, procs := range []int{2, 8} {
		got := run(procs)
		for r := range want.Acc.Values {
			if got.Acc.Values[r] != want.Acc.Values[r] {
				t.Fatalf("procs=%d: accuracy trace differs at round %d: %v vs %v",
					procs, r, got.Acc.Values[r], want.Acc.Values[r])
			}
			if got.MeanEst.Values[r] != want.MeanEst.Values[r] {
				t.Fatalf("procs=%d: mean-estimate trace differs at round %d", procs, r)
			}
		}
		if got.DecodeFailures != want.DecodeFailures || got.SuspectedMalicious != want.SuspectedMalicious {
			t.Fatalf("procs=%d: detection differs: failures %d/%d suspected %d/%d",
				procs, got.DecodeFailures, want.DecodeFailures,
				got.SuspectedMalicious, want.SuspectedMalicious)
		}
		for i := range want.TestEstimates {
			if got.TestEstimates[i] != want.TestEstimates[i] {
				t.Fatalf("procs=%d: test estimate %d differs", procs, i)
			}
		}
	}
}

// TestRepeatParallelDeterminism checks the multi-seed sweep aggregates
// identically at GOMAXPROCS 1, 2 and 8.
func TestRepeatParallelDeterminism(t *testing.T) {
	o := Options{Vehicles: 20, Rounds: 2, Rows: 600, Seed: 3}
	seeds := []int64{3, 4, 5}

	run := func(procs int) *Figure {
		t.Helper()
		setProcs(t, procs)
		fig, err := Repeat(Fig9, o, seeds)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		return fig
	}
	want := run(1)
	for _, procs := range []int{2, 8} {
		got := run(procs)
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("procs=%d: %d rows, want %d", procs, len(got.Rows), len(want.Rows))
		}
		for r := range want.Rows {
			for c := range want.Rows[r] {
				if got.Rows[r][c] != want.Rows[r][c] {
					t.Fatalf("procs=%d: cell (%d,%d) differs: %v vs %v",
						procs, r, c, got.Rows[r][c], want.Rows[r][c])
				}
			}
		}
	}
}
