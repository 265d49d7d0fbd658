package protocol

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

const (
	testTrace = "00000000deadbeef"
	testSpan  = "00000000cafef00d"
)

// TestCtxBinaryRoundTrip: context-bearing bulk messages ride the context
// kinds and round-trip exactly.
func TestCtxBinaryRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Broadcast: &Broadcast{Round: 3, Params: []float64{1.5, -2.25},
			TraceID: testTrace, SpanID: testSpan}},
		{Upload: &Upload{Round: 3, VehicleID: 7, Values: []float64{9, 8},
			TraceID: testTrace, SpanID: testSpan}},
	}
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := WriteVersion(&buf, m, Version); err != nil {
			t.Fatal(err)
		}
		body := buf.Bytes()[headerLen:]
		if body[0] != binaryMagic {
			t.Fatalf("%s with ctx should encode binary, got body %q", m.Kind(), body)
		}
		if k := body[1]; k != binaryKindBroadcastCtx && k != binaryKindUploadCtx {
			t.Fatalf("%s with ctx used kind %d, want a ctx kind", m.Kind(), k)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("ctx round trip changed the message:\n sent: %+v\n got:  %+v", m, got)
		}
	}
}

// TestRevision7WireBytes is the golden-bytes pin of revision 7: a
// context-free and a context-bearing Broadcast; a context-free Upload with
// no words, a context-bearing one whose words run stops at a fraction, and
// a context-free one all words; a Hello without a session ID; and a bare
// and a fully populated Setup, byte for byte. The uploads' tails mix +0,
// −0, 1.0, the float just below 1.0, a NaN payload, a subnormal, 0.5 and
// 5.0, so every class of the map and its padding show. Every frame but the
// uploads' is revision 6's, byte for byte. (Setup's bytes are the binary
// body's: builds that sent it as JSON are the second incompatibility
// DESIGN.md §13.3 lists.)
func TestRevision7WireBytes(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_dead_beef_0001)
	golden := []struct {
		m     *Message
		frame string
	}{
		{&Message{Broadcast: &Broadcast{Round: 2, Params: []float64{0.5, 1, 2}}},
			"0000002299cd9084b3010200000003000000000000000000e03f000000000000f03f0000000000000040"},
		// Tail classes 0 2 1 2 | 2 2 2 (pad): map 98 2a, then five literals.
		{&Message{Upload: &Upload{Round: 2, VehicleID: 4, Values: []float64{0, math.Copysign(0, -1), 1,
			math.Nextafter(1, 0), nan, math.SmallestNonzeroFloat64, 5}}},
			"0000003c8c5710e3" + "b302" + "02000000" + "04000000" + "07000000" + "00000000" + "982a" +
				"0000000000000080" + "ffffffffffffef3f" + "0100efbeaddef87f" + "0100000000000000" + "0000000000001440"},
		// Words run 7, 2³²−1, stopped by 0.5; tail classes 2 1 0 1 | 0 (pad).
		{&Message{Upload: &Upload{Round: 2, VehicleID: 4, Values: []float64{7, math.MaxUint32, 0.5, 1, 0, 1, 0}, Words: 3,
			TraceID: testTrace, SpanID: testSpan}},
			"0000003415ae65a1" + "b304" + "efbeadde00000000" + "0df0feca00000000" + "02000000" + "04000000" +
				"07000000" + "02000000" + "07000000" + "ffffffff" + "4600" + "000000000000e03f"},
		// All words: an empty tail has an empty map.
		{&Message{Upload: &Upload{Round: 2, VehicleID: 4, Values: []float64{7, 0, 1}, Words: 3}},
			"0000001e023512c6" + "b302" + "02000000" + "04000000" + "03000000" + "03000000" +
				"07000000" + "00000000" + "01000000"},
		{&Message{Broadcast: &Broadcast{Round: 2, Params: []float64{0.5, 1, 2}, TraceID: testTrace, SpanID: testSpan}},
			"00000032ce859759b303efbeadde000000000df0feca000000000200000003000000000000000000e03f000000000000f03f0000000000000040"},
		{&Message{Hello: &Hello{Version: 6, VehicleID: 4}},
			hex.EncodeToString([]byte("\x00\x00\x00\x26\x8c\xc3\x4e\x56" + `{"hello":{"version":6,"vehicle_id":4}}`))},
		{&Message{Setup: &Setup{InputSize: 3, SchemeVehicles: 4, SchemeSeed: 9, WireVersion: 6}},
			"0000004e2a1df96cb306" + "0300000000000000" + "0000000000000000" + "040000000000000000000000" +
				"0900000000000000" + "06000000" + "00000000000000000000000000000000" + "0000000000000000" +
				"000000000000000000000000"},
		{&Message{Setup: &Setup{InputSize: 2, LocalEpochs: 5, LocalRate: 0.5, ActivationCoeffs: []float64{0, 1},
			RefX: [][]float64{{1, 2}, {-1, 0.5}}, SchemeVehicles: 6, SchemeBatches: 2, SchemeDegree: 1, SchemeSeed: -2,
			WireVersion: 6, TraceID: testTrace, HelloNs: 7, ClockNs: 9}},
			"0000007eac82f06db306" + "0200000005000000" + "000000000000e03f" + "060000000200000001000000" +
				"feffffffffffffff" + "06000000" + "07000000000000000900000000000000" + "efbeadde00000000" +
				"020000000200000002000000" +
				"0000000000000000000000000000f03f" +
				"000000000000f03f0000000000000040000000000000f0bf000000000000e03f"},
	}
	for _, g := range golden {
		var buf bytes.Buffer
		if err := WriteVersion(&buf, g.m, Version); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != g.frame {
			t.Errorf("%s frame changed:\n got %s\nwant %s", g.m.Kind(), got, g.frame)
		}
		if n := EncodedSizeVersion(g.m, Version); n != len(g.frame)/2-4 {
			t.Errorf("%s accounted at %d bytes, frame less CRC is %d", g.m.Kind(), n, len(g.frame)/2-4)
		}
		// The pinned bytes decode to a message that writes them again.
		raw, _ := hex.DecodeString(g.frame)
		got, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: pinned frame does not read: %v", g.m.Kind(), err)
		}
		var again bytes.Buffer
		if err := WriteVersion(&again, got, Version); err != nil || !bytes.Equal(again.Bytes(), raw) {
			t.Errorf("%s: pinned frame reads back as %x, %v", g.m.Kind(), again.Bytes(), err)
		}
	}
}

// TestBulkHasNoJSONForm: a bulk message that does not fit the binary
// body — non-canonical or partial trace context, an integer outside the
// fixed-width fields, a reference set the reader would refuse — is
// refused by the writer, which has no other encoding to fall back to, and
// a JSON body naming a bulk variant (or the retired gather variant) is
// refused by the reader.
func TestBulkHasNoJSONForm(t *testing.T) {
	for _, m := range []*Message{
		{Broadcast: &Broadcast{Round: 1, Params: []float64{1}, TraceID: "abc", SpanID: "def"}},                         // short
		{Broadcast: &Broadcast{Round: 1, Params: []float64{1}, TraceID: strings.ToUpper(testTrace), SpanID: testSpan}}, // uppercase
		{Broadcast: &Broadcast{Round: 1, Params: []float64{1}, TraceID: testTrace}},                                    // partial
		{Upload: &Upload{Round: 1, Values: []float64{1}, TraceID: "0000000000000000", SpanID: testSpan}},               // zero trace
		{Broadcast: &Broadcast{Round: -1, Params: []float64{1}}},                                                       // round outside u32
		{Upload: &Upload{Round: 1, VehicleID: -5, Values: []float64{1}}},                                               // id outside u32
		{Setup: &Setup{RefX: [][]float64{{1, 2}, {3}}}},                                                                // ragged
		{Setup: &Setup{RefX: [][]float64{{}, {}}}},                                                                     // zero-width rows
		{Setup: &Setup{RefX: [][]float64{{1}}, SchemeVehicles: -1}},                                                    // count outside u32
		{Setup: &Setup{RefX: [][]float64{{1}}, WireVersion: 1 << 32}},                                                  // revision outside u32
		{Setup: &Setup{RefX: [][]float64{{1}}, TraceID: "abc"}},                                                        // short trace
		{Setup: &Setup{RefX: [][]float64{{1}}, TraceID: "0000000000000000"}},                                           // zero trace
	} {
		kept := []byte("kept")
		out, err := AppendFrame(kept, m, Version)
		if err == nil {
			t.Errorf("unencodable %s %+v framed as % x", m.Kind(), m, out[len(kept):])
		}
		if string(out) != "kept" {
			t.Errorf("refused %s left %q in the caller's buffer", m.Kind(), out)
		}
	}
	for _, body := range []string{
		`{"broadcast":{"round":1,"params":[1,2]}}`,
		`{"upload":{"round":1,"vehicle_id":2,"values":[3]}}`,
		`{"setup":{"input_size":1,"local_epochs":1,"local_rate":0.1,"ref_x":[[1]],"scheme_vehicles":2,"scheme_batches":2,"scheme_degree":1,"scheme_seed":1,"wire_version":5}}`,
		`{"gather":{"uploads":[{"round":1,"vehicle_id":2,"values":[3]}]}}`,
	} {
		if m, err := Read(bytes.NewReader(rawFrame([]byte(body)))); err == nil {
			t.Errorf("JSON body %s read as %+v", body, m)
		} else if errors.Is(err, ErrCorruptFrame) {
			t.Errorf("JSON body %s misreported as a corrupt frame: %v", body, err)
		}
	}
}

// TestCtxBinaryRejectsZeroIDs: a crafted ctx frame with a zero trace or
// span ID is rejected frame-locally — partial context never decodes, so
// decode∘encode stays the identity on accepted frames.
func TestCtxBinaryRejectsZeroIDs(t *testing.T) {
	m := &Message{Broadcast: &Broadcast{Round: 1, Params: []float64{1},
		TraceID: testTrace, SpanID: testSpan}}
	var buf bytes.Buffer
	if err := WriteVersion(&buf, m, Version); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	// Zero out the span ID (bytes 10..18 of the body) and re-checksum.
	body := append([]byte(nil), frame[headerLen:]...)
	for i := 10; i < 18; i++ {
		body[i] = 0
	}
	reframed := rawFrame(body)
	if _, err := Read(bytes.NewReader(reframed)); err == nil {
		t.Fatal("ctx frame with zero span ID must be rejected")
	}
}

// TestTraceContextAccessor covers the per-kind context extraction the
// transport layer uses for telemetry.
func TestTraceContextAccessor(t *testing.T) {
	cases := []struct {
		m           *Message
		trace, span string
	}{
		{&Message{Hello: &Hello{VehicleID: 1, TraceID: testTrace}}, testTrace, ""},
		{&Message{Setup: &Setup{TraceID: testTrace}}, testTrace, ""},
		{&Message{Broadcast: &Broadcast{TraceID: testTrace, SpanID: testSpan}}, testTrace, testSpan},
		{&Message{Upload: &Upload{TraceID: testTrace, SpanID: testSpan}}, testTrace, testSpan},
		{&Message{Finished: &Finished{Rounds: 1}}, "", ""},
	}
	for _, c := range cases {
		trace, span := c.m.TraceContext()
		if trace != c.trace || span != c.span {
			t.Fatalf("%s: TraceContext = (%q, %q), want (%q, %q)", c.m.Kind(), trace, span, c.trace, c.span)
		}
	}
}
