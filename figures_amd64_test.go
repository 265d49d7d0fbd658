package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// TestFiguresGolden regenerates every figure checked in under results/ —
// `lcofl all` at its defaults, plus `lcofl run -figure fig5 -repeat 3`
// (seeds 1–3) as fig5-repeated.tsv — and compares each file byte for
// byte. The figures come from fl.System, the simulation the networked
// engine is checked against (internal/node TestEngineMatchesSimulation),
// so this pins the oracle as well as the paper's numbers. If a change is
// meant to move them, regenerate results/ with those two commands and say
// so.
//
// Like TestGoldenSessionParams the file is amd64-only (other ports may
// fuse x*y+z), and like the allocation pins the test skips under the race
// detector, where it would take minutes.
func TestFiguresGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the figure regeneration is too slow under the race detector")
	}
	o := experiments.Options{Seed: 1}
	figs, err := experiments.All(o)
	if err != nil {
		t.Fatal(err)
	}
	repeated, err := experiments.Repeat(experiments.Fig5, o, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]*experiments.Figure{"fig5-repeated.tsv": repeated}
	for _, fig := range figs {
		got[fig.Name+".tsv"] = fig
	}
	files, err := filepath.Glob(filepath.Join("results", "*.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(got) {
		t.Errorf("results/ holds %d figures, the generators write %d", len(files), len(got))
	}
	for _, path := range files {
		fig, ok := got[filepath.Base(path)]
		if !ok {
			t.Errorf("%s: no generator writes it", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fig.WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s differs from a fresh run: first difference at line %d", path, firstDiffLine(buf.Bytes(), want))
		}
	}
}

// firstDiffLine returns the 1-based line on which a and b first differ.
func firstDiffLine(a, b []byte) int {
	line := 1
	for i := 0; i < len(a) && i < len(b) && a[i] == b[i]; i++ {
		if a[i] == '\n' {
			line++
		}
	}
	return line
}
