package chaos

import (
	"sort"
	"strings"
	"testing"
	"time"
)

func TestParseFullSpec(t *testing.T) {
	in := "seed=7;drop.upload=0.15:max=4;delay=0.2:2ms;corrupt.upload@3=1:max=2;crash@7=before-upload:2"
	spec, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 7 {
		t.Errorf("seed = %d, want 7", spec.Seed)
	}
	if len(spec.Rules) != 3 || len(spec.Crashes) != 1 {
		t.Fatalf("got %d rules, %d crashes", len(spec.Rules), len(spec.Crashes))
	}
	want := []Rule{
		{Fault: "drop", Kind: "upload", Peer: -1, Prob: 0.15, Max: 4},
		{Fault: "delay", Kind: "", Peer: -1, Prob: 0.2, Delay: 2 * time.Millisecond},
		{Fault: "corrupt", Kind: "upload", Peer: 3, Prob: 1, Max: 2},
	}
	for i, w := range want {
		if spec.Rules[i] != w {
			t.Errorf("rule %d = %+v, want %+v", i, spec.Rules[i], w)
		}
	}
	if c := spec.Crashes[0]; c != (Crash{Peer: 7, Point: "before-upload", Round: 2}) {
		t.Errorf("crash = %+v", c)
	}
}

func TestParseEmptyAndWhitespace(t *testing.T) {
	for _, in := range []string{"", " ", ";;", "seed=3;;"} {
		spec, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if len(spec.Rules) != 0 || len(spec.Crashes) != 0 {
			t.Errorf("Parse(%q) = %+v, want empty", in, spec)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"bogus", "no '='"},
		{"explode=0.5", "unknown fault"},
		{"drop=1.5", "probability"},
		{"drop=-0.1", "probability"},
		{"drop=x", "probability"},
		{"seed=abc", "seed"},
		{"drop.warp=0.5", "unknown message kind"},
		{"drop@-2=0.5", "bad peer"},
		{"drop@x=0.5", "bad peer"},
		{"delay=0.5", "duration"},
		{"delay=0.5:nope", "duration"},
		{"delay=0.5:-2ms", "duration"},
		{"drop=0.5:max=0", "bad max"},
		{"drop=0.5:wat=3", "unknown argument"},
		{"crash=2", "point:round"},
		{"crash=sideways:2", "unknown crash point"},
		{"crash=before-upload:0", "bad crash round"},
		{"crash.upload=before-upload:2", "no message kind"},
	}
	for _, c := range cases {
		if _, err := Parse(c.in); err == nil {
			t.Errorf("Parse(%q) accepted", c.in)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) = %v, want substring %q", c.in, err, c.wantSub)
		}
	}
}

// TestStringRoundTrip pins that the canonical rendering reparses to the
// same spec — the property cmd/lcofl relies on when echoing the active
// spec into traces and logs.
func TestStringRoundTrip(t *testing.T) {
	in := "seed=42;drop.upload=0.25:max=3;corrupt@1=0.5;delay.broadcast=1:5ms:max=2;crash=after-upload:3"
	spec, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	out := spec.String()
	spec2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse %q: %v", out, err)
	}
	if spec2.String() != out {
		t.Errorf("not canonical: %q -> %q", out, spec2.String())
	}
	if len(spec2.Rules) != len(spec.Rules) || len(spec2.Crashes) != len(spec.Crashes) {
		t.Errorf("round trip lost clauses: %q", out)
	}
}

// kinds returns the sorted message-kind vocabulary.
func kinds() []string {
	out := make([]string, 0, len(msgKinds))
	for k := range msgKinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestKinds(t *testing.T) {
	ks := kinds()
	if len(ks) != 6 {
		t.Fatalf("got %d kinds: %v", len(ks), ks)
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Errorf("kinds not sorted: %v", ks)
		}
	}
}
