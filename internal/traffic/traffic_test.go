package traffic

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/approx"
	"repro/internal/nn"
)

func TestGenerateShapeAndRange(t *testing.T) {
	ds, err := Generate(GenConfig{Rows: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 500 || len(ds.Slowness) != 500 {
		t.Fatalf("len = %d/%d", ds.Len(), len(ds.Slowness))
	}
	for i, s := range ds.Samples {
		if len(s.X) != NumFeatures {
			t.Fatalf("sample %d has %d features", i, len(s.X))
		}
		for j, v := range s.X {
			if v < -1 || v > 1 {
				t.Fatalf("sample %d feature %d = %g outside [-1,1]", i, j, v)
			}
		}
		if s.Y != 0 && s.Y != 1 {
			t.Fatalf("sample %d label %g not binary", i, s.Y)
		}
		if ds.Slowness[i] < 0 || ds.Slowness[i] > 100 {
			t.Fatalf("slowness %g outside [0,100]", ds.Slowness[i])
		}
		// Label must agree with the latent slowness threshold.
		if (ds.Slowness[i] > 50) != (s.Y == 1) {
			t.Fatalf("sample %d: slowness %g but label %g", i, ds.Slowness[i], s.Y)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(GenConfig{Rows: 50, Seed: 7})
	b, _ := Generate(GenConfig{Rows: 50, Seed: 7})
	for i := range a.Samples {
		for j := range a.Samples[i].X {
			if a.Samples[i].X[j] != b.Samples[i].X[j] {
				t.Fatal("same seed produced different data")
			}
		}
	}
	c, _ := Generate(GenConfig{Rows: 50, Seed: 8})
	same := true
	for i := range a.Samples {
		if a.Samples[i].Y != c.Samples[i].Y {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical labels (suspicious)")
	}
}

func TestGenerateClassBalance(t *testing.T) {
	ds, _ := Generate(GenConfig{Rows: 2000, Seed: 2})
	var pos float64
	for _, s := range ds.Samples {
		pos += s.Y
	}
	frac := pos / float64(ds.Len())
	if frac < 0.15 || frac > 0.85 {
		t.Errorf("class balance %g too extreme for training", frac)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{Rows: 0}); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestTaskIsLearnable(t *testing.T) {
	// The substitution's core promise (DESIGN.md §2): the paper's model,
	// one nonlinear layer, must be able to learn the feature→slowness
	// relation. A single layer needs a longer schedule than the 30 epochs
	// a hidden layer of 8 did: here it scores 0.794 at 30 epochs and
	// 0.88–0.92 from 50 to 100.
	ds, err := Generate(GenConfig{Rows: 800, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.New(nn.Config{
		LayerSizes: []int{NumFeatures, 1},
		Activation: approx.SymmetricSigmoid(),
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	if _, err := net.TrainSGD(train.Samples, 0.3, 100, rng); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range test.Samples {
		pi, err := net.Estimate(s.X)
		if err != nil {
			t.Fatal(err)
		}
		if (pi > 0.5) == (s.Y == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(test.Len()); acc < 0.8 {
		t.Errorf("test accuracy %g, want >= 0.8 — task not learnable", acc)
	}
}

func TestSplit(t *testing.T) {
	ds, _ := Generate(GenConfig{Rows: 100, Seed: 9})
	train, test, err := ds.Split(0.7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 70 || test.Len() != 30 {
		t.Errorf("split sizes %d/%d", train.Len(), test.Len())
	}
	if len(train.Slowness) != 70 {
		t.Error("slowness not carried through split")
	}
	if _, _, err := ds.Split(0, 1); err == nil {
		t.Error("fraction 0 accepted")
	}
	if _, _, err := ds.Split(1, 1); err == nil {
		t.Error("fraction 1 accepted")
	}
}

func TestPartitionIID(t *testing.T) {
	ds, _ := Generate(GenConfig{Rows: 103, Seed: 11})
	parts, err := ds.PartitionIID(10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 10 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for i, p := range parts {
		if len(p) == 0 {
			t.Errorf("vehicle %d has no data", i)
		}
		total += len(p)
	}
	if total != 103 {
		t.Errorf("partition lost samples: %d", total)
	}
	if _, err := ds.PartitionIID(0, 1); err == nil {
		t.Error("zero vehicles accepted")
	}
	if _, err := ds.PartitionIID(500, 1); err == nil {
		t.Error("more vehicles than samples accepted")
	}
}

func TestFeaturesLabelsCopies(t *testing.T) {
	ds, _ := Generate(GenConfig{Rows: 5, Seed: 13})
	f := ds.Features()
	f[0][0] = 99
	if ds.Samples[0].X[0] == 99 {
		t.Error("Features aliases dataset")
	}
	l := ds.Labels()
	l[0] = 42
	if ds.Samples[0].Y == 42 {
		t.Error("Labels aliases dataset")
	}
}

func TestCorruptLowQuality(t *testing.T) {
	ds, _ := Generate(GenConfig{Rows: 200, Seed: 14})
	bad := CorruptLowQuality(ds.Samples, 0.3, 0.5, 15)
	if len(bad) != len(ds.Samples) {
		t.Fatal("length changed")
	}
	flips := 0
	var noise float64
	for i := range bad {
		if bad[i].Y != ds.Samples[i].Y {
			flips++
		}
		for j := range bad[i].X {
			if bad[i].X[j] < -1 || bad[i].X[j] > 1 {
				t.Fatalf("corrupted feature %g left [-1,1]", bad[i].X[j])
			}
			noise += math.Abs(bad[i].X[j] - ds.Samples[i].X[j])
		}
	}
	if flips < 50 || flips > 150 {
		t.Errorf("flips = %d, want ≈100", flips)
	}
	if noise == 0 {
		t.Error("no feature noise applied")
	}
	// The original must be untouched.
	ds2, _ := Generate(GenConfig{Rows: 200, Seed: 14})
	for i := range ds.Samples {
		for j := range ds.Samples[i].X {
			if ds.Samples[i].X[j] != ds2.Samples[i].X[j] {
				t.Fatal("CorruptLowQuality mutated its input")
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds, _ := Generate(GenConfig{Rows: 25, Seed: 16})
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() {
		t.Fatalf("rows = %d, want %d", got.Len(), ds.Len())
	}
	for i := range ds.Samples {
		if got.Samples[i].Y != ds.Samples[i].Y || got.Slowness[i] != ds.Slowness[i] {
			t.Fatalf("row %d label/slowness mismatch", i)
		}
		for j := range ds.Samples[i].X {
			if got.Samples[i].X[j] != ds.Samples[i].X[j] {
				t.Fatalf("row %d feature %d mismatch", i, j)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty csv accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,b\n1,2\n")); err == nil {
		t.Error("wrong column count accepted")
	}
	hdr := "h"
	for i := 1; i < NumFeatures+2; i++ {
		hdr += ",h"
	}
	bad := hdr + "\n"
	for i := 0; i < NumFeatures+1; i++ {
		bad += "0,"
	}
	bad += "oops\n"
	if _, err := ReadCSV(bytes.NewBufferString(bad)); err == nil {
		t.Error("non-numeric cell accepted")
	}
}

func TestFeatureNameCount(t *testing.T) {
	if len(FeatureNames) != NumFeatures {
		t.Fatalf("FeatureNames has %d entries, want %d", len(FeatureNames), NumFeatures)
	}
	if len(eventRates) != NumFeatures-1 || len(eventSeverity) != NumFeatures-1 {
		t.Fatalf("event tables sized %d/%d, want %d", len(eventRates), len(eventSeverity), NumFeatures-1)
	}
}

func TestPartitionNonIID(t *testing.T) {
	ds, _ := Generate(GenConfig{Rows: 400, Seed: 17})
	parts, err := ds.PartitionNonIID(8, 1.0, 18)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, p := range parts {
		if len(p) == 0 {
			t.Fatalf("vehicle %d empty", i)
		}
		total += len(p)
	}
	if total != 400 {
		t.Fatalf("partition lost samples: %d", total)
	}
	// Full skew: each vehicle's hour range must be narrow — the spread of
	// hours within a vehicle far below the global spread.
	within := 0.0
	for _, p := range parts {
		lo, hi := 2.0, -2.0
		for _, s := range p {
			h := s.X[0]
			if h < lo {
				lo = h
			}
			if h > hi {
				hi = h
			}
		}
		within += (hi - lo) / float64(len(parts))
	}
	if within > 0.7 { // global hour spread is 2.0
		t.Errorf("mean within-vehicle hour spread %g too wide for skew=1", within)
	}
	// Zero skew approximates IID: hour spread per vehicle near global.
	iid, err := ds.PartitionNonIID(8, 0, 18)
	if err != nil {
		t.Fatal(err)
	}
	wide := 0.0
	for _, p := range iid {
		lo, hi := 2.0, -2.0
		for _, s := range p {
			h := s.X[0]
			if h < lo {
				lo = h
			}
			if h > hi {
				hi = h
			}
		}
		wide += (hi - lo) / float64(len(iid))
	}
	if wide < 1.5 {
		t.Errorf("skew=0 spread %g too narrow — shuffle not applied", wide)
	}
}

func TestPartitionNonIIDValidation(t *testing.T) {
	ds, _ := Generate(GenConfig{Rows: 40, Seed: 19})
	if _, err := ds.PartitionNonIID(0, 0.5, 1); err == nil {
		t.Error("zero vehicles accepted")
	}
	if _, err := ds.PartitionNonIID(100, 0.5, 1); err == nil {
		t.Error("more vehicles than samples accepted")
	}
	if _, err := ds.PartitionNonIID(4, 1.5, 1); err == nil {
		t.Error("skew > 1 accepted")
	}
}
