package nn

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/approx"
	"repro/internal/poly"
)

func TestSnapshotRoundTripExact(t *testing.T) {
	n, err := New(testConfig(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromSnapshot(n.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, -0.2, 0.3, 0.4, -0.5}
	a, _ := n.Estimate(x)
	b, _ := got.Estimate(x)
	if a != b {
		t.Errorf("round-trip changed output: %g vs %g", a, b)
	}
	if got.Activation().Poly != nil {
		t.Error("exact activation became polynomial")
	}
}

func TestSnapshotRoundTripPolynomial(t *testing.T) {
	p := poly.NewReal(0, 0.5, 0, -0.04)
	n, err := New(Config{
		LayerSizes: []int{4, 1},
		Activation: approx.FromPolynomial("p", p),
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(n.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalNetworkJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, -1, 0.5, 0.25}
	a, _ := n.Estimate(x)
	b, _ := got.Estimate(x)
	if a != b {
		t.Errorf("JSON round-trip changed output: %g vs %g", a, b)
	}
	if got.Activation().Poly == nil {
		t.Error("polynomial activation lost")
	}
}

func TestSnapshotValidation(t *testing.T) {
	if _, err := FromSnapshot(Snapshot{LayerSizes: []int{4}}); err == nil {
		t.Error("single-layer snapshot accepted")
	}
	if _, err := FromSnapshot(Snapshot{LayerSizes: []int{4, 1}, Params: []float64{1}}); err == nil {
		t.Error("short params accepted")
	}
	if _, err := UnmarshalNetworkJSON([]byte("not json")); err == nil {
		t.Error("garbage JSON accepted")
	}
	// A hidden-layer snapshot (the format can still spell one) names the
	// shape it was refused for.
	hidden := []byte(`{"layer_sizes":[16,3,1],"params":[` + strings.Repeat("0,", 54) + `0]}`)
	if _, err := UnmarshalNetworkJSON(hidden); err == nil || !strings.Contains(err.Error(), "[16 3 1]") {
		t.Errorf("hidden-layer snapshot: error %v, want a refusal naming its shape", err)
	}
}
