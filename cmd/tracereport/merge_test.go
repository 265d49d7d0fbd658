package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// mergeFixtures is the handcrafted distributed run under testdata: a
// fusion trace plus three vehicle traces with distinct clock offsets,
// covering a clean round, a budget-closed round with a compute
// straggler, and one deliberate causality violation (vehicle 1's round-1
// ingest precedes its offset-corrected upload by more than the
// tolerance).
var mergeFixtures = []string{
	"testdata/merge_fusion.jsonl",
	"testdata/merge_vehicle0.jsonl",
	"testdata/merge_vehicle1.jsonl",
	"testdata/merge_vehicle2.jsonl",
}

// TestMergeGolden pins the merged timeline byte-for-byte: the fixtures
// are fixed-clock traces, so two runs must agree with each other and
// with the committed golden file exactly — any nondeterminism (map
// iteration, unsorted sweeps) shows up as a diff here.
func TestMergeGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/merge_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if err := run(append([]string{"-merge"}, mergeFixtures...), &first); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-merge"}, mergeFixtures...), &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("merge output is nondeterministic:\n--- first ---\n%s--- second ---\n%s", first.String(), second.String())
	}
	if !bytes.Equal(first.Bytes(), want) {
		t.Fatalf("merge output drifted from golden file:\n--- got ---\n%s--- want ---\n%s", first.String(), want)
	}
}

// TestMergeSemantics spot-checks the load-bearing lines of the golden
// run so a regenerated golden file can't silently bless a regression.
func TestMergeSemantics(t *testing.T) {
	var buf bytes.Buffer
	if err := run(append([]string{"-merge"}, mergeFixtures...), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		// Vehicle 0's clock runs 100µs behind the fusion centre, so its
		// round-0 train span (local t=1400000) lands at 1500000 and its
		// upload completes exactly at the ingest time: transit=0.
		"vehicle 0: train@1500000+2000000 encode@3600000+300000 upload@4900000+100000 ingest@5000000 transit=0",
		// Vehicle 1 runs 200µs ahead; its round-0 upload still orders
		// correctly and shows real network transit.
		"vehicle 1: train@2000000+1500000 encode@3600000+200000 upload@4900000+50000 ingest@5200000 transit=250000",
		"vehicle 2: STRAGGLER — compute: trained but no upload sent before the deadline",
		"aggregate@6000000+800000",
		"causality: 1 violation(s)",
		"round 1 vehicle 1: ingest at 12500000 ns precedes upload send at 14000000 ns",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("merge output missing %q:\n%s", want, out)
		}
	}
}

// TestMergeFusionOnly exercises the single-file mode: an in-process
// `lcofl dist` run traces both sides into one file on one clock, so the
// fusion file's own stage spans must appear with offset 0 even though
// the file contains node.clock_offset events.
func TestMergeFusionOnly(t *testing.T) {
	trace := writeTemp(t, "combined.jsonl",
		`{"ev":"node.clock_offset","t_ns":500,"vehicle":0,"offset_ns":123456,"rtt_ns":1000}
{"ev":"node.round","t_ns":1000,"dur_ns":9000,"round":0,"span":"a000000000000000"}
{"ev":"node.train","t_ns":2000,"dur_ns":1000,"round":0,"vehicle":0}
{"ev":"node.upload","t_ns":4000,"dur_ns":100,"round":0,"vehicle":0}
{"ev":"node.ingest","t_ns":4200,"round":0,"vehicle":0}
`)
	var buf bytes.Buffer
	if err := run([]string{"-merge", trace}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The offset_ns value must NOT shift the spans — same clock.
	for _, want := range []string{
		"vehicle 0: offset=0 rtt=1000",
		"vehicle 0: train@2000+1000 upload@4000+100 ingest@4200 transit=100",
		"causality: ok (no violations)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fusion-only merge missing %q:\n%s", want, out)
		}
	}
}

func TestMergeFlagConflicts(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-merge", "-json", "x.jsonl"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "cannot be combined") {
		t.Fatalf("-merge -json accepted: %v", err)
	}
	if err := run([]string{"-merge"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "fusion-centre trace") {
		t.Fatalf("-merge with no files accepted: %v", err)
	}
}

func TestStragglerAttribution(t *testing.T) {
	m := &mergeState{
		rounds:      map[int64]*mergeRound{},
		vehicles:    map[int64]*mergeVehicle{},
		roundBySpan: map[string]int64{},
	}
	// No trace at all for vehicle 9.
	if got := m.attributeStraggler(0, 9); !strings.Contains(got, "never started") {
		t.Fatalf("missing-vehicle attribution = %q", got)
	}
	v := m.vehicle(7)
	v.stages[0] = map[string]stageSpan{"node.train": {t: 10, dur: 5}}
	if got := m.attributeStraggler(0, 7); !strings.Contains(got, "compute") {
		t.Fatalf("trained-only attribution = %q", got)
	}
	v.stages[0]["node.upload"] = stageSpan{t: 20, dur: 1}
	if got := m.attributeStraggler(0, 7); !strings.Contains(got, "network") {
		t.Fatalf("uploaded-but-lost attribution = %q", got)
	}
}

// TestMergeRejectsMalformed feeds -merge traces the shared reader must
// refuse: each fails with its file and line named, in the fusion trace
// and in a vehicle trace alike, and none panics.
func TestMergeRejectsMalformed(t *testing.T) {
	good := `{"ev":"node.round","t_ns":1000,"dur_ns":9000,"round":0}` + "\n"
	long := `{"ev":"node.train","t_ns":1,"pad":"` + strings.Repeat("x", maxTraceLine) + `"}` + "\n"
	for _, tc := range []struct{ name, trace, want string }{
		{"bad json", good + "{\"ev\":\n", "line 2: unexpected end of JSON input"},
		{"missing ev", good + good + `{"t_ns":5,"round":0}` + "\n", `line 3: event has no "ev" field`},
		{"string t_ns", `{"ev":"node.ingest","t_ns":"5","round":0,"vehicle":1}` + "\n", `line 1: event "node.ingest" has no numeric "t_ns"`},
		{"over-long line", good + long, "line 2: bufio.Scanner: token too long"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := writeTemp(t, "bad.jsonl", tc.trace)
			fusion := writeTemp(t, "fusion.jsonl", good)
			for _, files := range [][]string{{bad}, {fusion, bad}} {
				var buf bytes.Buffer
				err := run(append([]string{"-merge"}, files...), &buf)
				if err == nil || !strings.Contains(err.Error(), bad+": "+tc.want) {
					t.Fatalf("merge %v: err = %v, want %q", files, err, tc.want)
				}
			}
		})
	}
}
