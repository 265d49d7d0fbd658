package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"testing"
)

// encodeSeed frames m for the corpus; the fuzz seeds must be valid
// frames so the mutator starts from the interesting region.
func encodeSeed(f *testing.F, m *Message) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// rawFrame wraps an arbitrary body in a CRC-valid frame, so it reaches
// the body parsers instead of stopping at the checksum.
func rawFrame(body []byte) []byte {
	frame := make([]byte, 8, 8+len(body))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	return append(frame, body...)
}

// FuzzFrameCodec feeds arbitrary bytes to the frame decoder. Read must
// never panic — a malicious or corrupted peer controls this input — and
// any frame it accepts must re-encode and re-decode to the same message
// (decode∘encode is the identity on accepted frames), with bulk messages
// — Setup, Broadcast, Upload — only ever out of binary bodies and control
// messages out of JSON ones.
// testdata/fuzz/FuzzFrameCodec/seed-10 is a well-formed frame of the
// retired gather kind (binary kind 5): a must-reject seed.
func FuzzFrameCodec(f *testing.F) {
	variants := []*Message{
		{Hello: &Hello{Version: Version, VehicleID: 3}},
		{Setup: &Setup{InputSize: 4, LocalEpochs: 2, LocalRate: 0.05,
			RefX: [][]float64{{1, 2}}, SchemeVehicles: 6, SchemeBatches: 2,
			SchemeDegree: 1, SchemeSeed: 99, WireVersion: Version}},
		{Broadcast: &Broadcast{Round: 1, Params: []float64{0.5, -0.25}}},
		{Upload: &Upload{Round: 1, VehicleID: 2, Values: []float64{1, 2, 3}}},
		{Finished: &Finished{Rounds: 5}},
		{Error: &Error{Reason: "boom"}},
	}
	for _, m := range variants {
		f.Add(encodeSeed(f, m))
	}
	// Binary Setup shapes: traced with the handshake clock readings, no
	// activation coefficients (the exact sigmoid), no reference rows.
	f.Add(encodeSeed(f, &Message{Setup: &Setup{InputSize: 2, LocalEpochs: 1, LocalRate: 0.1,
		ActivationCoeffs: []float64{0, 0.25}, RefX: [][]float64{{1, -1}, {0.5, math.NaN()}},
		SchemeVehicles: 6, SchemeBatches: 2, SchemeDegree: 1, SchemeSeed: -3, WireVersion: Version,
		TraceID: "00000000deadbeef", HelloNs: 1200, ClockNs: 3400}}))
	f.Add(encodeSeed(f, &Message{Setup: &Setup{InputSize: 1, RefX: [][]float64{{1}, {2}},
		SchemeVehicles: 3, SchemeBatches: 2, SchemeDegree: 1, WireVersion: Version}}))
	f.Add(encodeSeed(f, &Message{Setup: &Setup{InputSize: 4, ActivationCoeffs: []float64{0, 1}, WireVersion: Version}}))
	// JSON bodies naming a bulk variant: well-formed, must be rejected.
	f.Add(rawFrame([]byte(`{"setup":{"input_size":4,"local_epochs":2,"local_rate":0.05,"ref_x":[[1,2]],"scheme_vehicles":6,"scheme_batches":2,"scheme_degree":1,"scheme_seed":99,"wire_version":5}}`)))
	f.Add(rawFrame([]byte(`{"broadcast":{"round":1,"params":[0.5,-0.25]}}`)))
	f.Add(rawFrame([]byte(`{"upload":{"round":1,"vehicle_id":2,"values":[1,2,3]}}`)))
	// Float payloads only a binary body can carry (NaN bit patterns,
	// infinities), and an empty upload.
	f.Add(encodeSeed(f, &Message{Broadcast: &Broadcast{Round: 2,
		Params: []float64{math.NaN(), math.Inf(1), math.Copysign(0, -1)}}}))
	f.Add(encodeSeed(f, &Message{Upload: &Upload{Round: 7, VehicleID: 1}}))
	// Context-bearing binary frames (kinds 3/4), including a NaN payload
	// so the ctx kinds' bit-exact float path is exercised.
	f.Add(encodeSeed(f, &Message{Broadcast: &Broadcast{Round: 2,
		Params:  []float64{math.NaN(), 1.5},
		TraceID: "00000000deadbeef", SpanID: "00000000cafef00d"}}))
	f.Add(encodeSeed(f, &Message{Upload: &Upload{Round: 2, VehicleID: 3,
		Values:  []float64{-0.5},
		TraceID: "00000000deadbeef", SpanID: "00000000cafef00d"}}))
	// Uploads carrying words: all of them, a run a NaN half ends, a run
	// the declared count ends before an exact value, and a traced one
	// whose −0 half ends the run.
	f.Add(encodeSeed(f, &Message{Upload: &Upload{Round: 3, VehicleID: 4,
		Values: []float64{0, math.MaxUint32, 17}, Words: 3}}))
	f.Add(encodeSeed(f, &Message{Upload: &Upload{Round: 3, VehicleID: 4,
		Values: []float64{5, math.NaN(), 6, 0.25}, Words: 3}}))
	f.Add(encodeSeed(f, &Message{Upload: &Upload{Round: 3, VehicleID: 4,
		Values: []float64{5, 6, 7, 8}, Words: 2}}))
	f.Add(encodeSeed(f, &Message{Upload: &Upload{Round: 3, VehicleID: 4,
		Values: []float64{9, math.Copysign(0, -1), 1 << 32}, Words: 3,
		TraceID: "00000000deadbeef", SpanID: "00000000cafef00d"}}))
	// A JSON upload with non-canonical context, which once was the
	// fallback encoding: must be rejected like any JSON bulk body.
	f.Add(rawFrame([]byte(`{"upload":{"round":1,"vehicle_id":1,"values":[2],"trace_id":"ABC","span_id":"def"}}`)))
	// Fleet frames: a session-routed hello and both admission answers.
	f.Add(encodeSeed(f, &Message{Hello: &Hello{Version: Version, VehicleID: 1, SessionID: "s1"}}))
	f.Add(encodeSeed(f, &Message{Admission: &Admission{Queued: true, Reason: "budget"}}))
	f.Add(encodeSeed(f, &Message{Admission: &Admission{Reason: "fleet at connection budget", Retry: true}}))
	// An envelope with two variants: Validate must refuse it.
	f.Add(rawFrame([]byte(`{"hello":{"version":5,"vehicle_id":1},"finished":{"rounds":1}}`)))
	// Malformed shapes the decoder must reject without panicking.
	corrupt := encodeSeed(f, variants[0])
	corrupt[len(corrupt)-1] ^= 0xff // body flip: CRC mismatch
	f.Add(corrupt)
	f.Add([]byte{})                                       // empty stream
	f.Add([]byte{0, 0, 0})                                // truncated header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})     // oversized length
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 0, '{', '}'})       // bad CRC over "{}"
	f.Add(append(encodeSeed(f, variants[4]), 0, 0, 0, 1)) // trailing partial frame
	// Malformed binary bodies (CRC-valid so they reach the parser):
	// bare magic, unknown kind, truncated headers, and a count that
	// disagrees with the payload length.
	for _, body := range [][]byte{
		{0xB3},
		{0xB3, 0x7f},
		{0xB3, 0x01, 1, 0},
		{0xB3, 0x02, 1, 0, 0, 0, 2, 0, 0, 0},
		{0xB3, 0x01, 1, 0, 0, 0, 9, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8},
		// ctx kinds: truncated ctx prefix, and a zero span ID (partial
		// context must be rejected frame-locally).
		{0xB3, 0x03, 1, 2, 3, 4},
		{0xB3, 0x04, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0},
		// kind 0; an upload whose count overflows the frame limit; a ctx
		// broadcast with a full prefix but no round; an upload carrying
		// one payload byte too many.
		{0xB3, 0x00, 1, 0, 0, 0, 0, 0, 0, 0},
		{0xB3, 0x02, 1, 0, 0, 0, 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},
		{0xB3, 0x03, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0},
		{0xB3, 0x02, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		// upload words: more words than values; a words field cut off; a
		// payload sized as if the words were floats.
		{0xB3, 0x02, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8},
		{0xB3, 0x02, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 1, 0},
		{0xB3, 0x02, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8},
		// setup: a truncated header; rows x cols overstating the payload;
		// rows without cols; a product that wraps 32 bits over no payload.
		setupBody(0, 0, 0, 0)[:40],
		setupBody(1, 2, 2, 4*8),
		setupBody(0, 7, 0, 0),
		setupBody(0, 1<<16, 1<<16, 0),
	} {
		f.Add(rawFrame(body))
	}
	// An upload's class map: all +0 (a map of zero bytes and nothing
	// after it), all literals, a mix of the three classes with padding,
	// then a class-3 byte, non-zero padding bits, a literal of +0 (it has
	// a class of its own), and a short map under a count past
	// maxBinaryValues — four must-reject bodies.
	f.Add(encodeSeed(f, &Message{Upload: &Upload{Round: 4, VehicleID: 5, Values: make([]float64, 8)}}))
	f.Add(encodeSeed(f, &Message{Upload: &Upload{Round: 4, VehicleID: 5,
		Values: []float64{0.5, math.Copysign(0, -1), math.NaN(), 5}}}))
	f.Add(encodeSeed(f, &Message{Upload: &Upload{Round: 4, VehicleID: 5,
		Values: []float64{3, 1, 0, 0.25, 1, 1, 0}, Words: 1}}))
	upload := func(count uint32, tail ...byte) []byte {
		b := binary.LittleEndian.AppendUint32([]byte{0xB3, 0x02, 4, 0, 0, 0, 5, 0, 0, 0}, count)
		return append(binary.LittleEndian.AppendUint32(b, 0), tail...)
	}
	for _, body := range [][]byte{
		upload(1, 0x03),
		upload(3, 0x40),
		upload(1, 0x02, 0, 0, 0, 0, 0, 0, 0, 0),
		upload(maxBinaryValues+1, 0, 0, 0, 0),
	} {
		f.Add(rawFrame(body))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics and hangs are not
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Read returned an invalid message: %v", err)
		}
		binaryBody := data[8] == 0xB3
		if m.isBulk() != binaryBody {
			t.Fatalf("%s message read out of a body starting %#x", m.Kind(), data[8])
		}
		// Round trip through the encoder and compare the re-encodings
		// byte for byte, which stays meaningful for the NaN payloads a
		// binary body round-trips bit-exactly.
		var buf bytes.Buffer
		if err := WriteVersion(&buf, m, Version); err != nil {
			t.Fatalf("accepted message does not re-encode: %v", err)
		}
		if binaryBody && !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("accepted binary frame re-encodes differently:\n read: %x\nwrote: %x", data, buf.Bytes())
		}
		m2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		var buf2 bytes.Buffer
		if err := WriteVersion(&buf2, m2, Version); err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("round trip changed the message:\n first: %x\nsecond: %x", buf.Bytes(), buf2.Bytes())
		}
		// The control messages' fields, which json.Marshal shows (a bulk
		// message shows none: the byte comparison above is all of it).
		j1, _ := json.Marshal(m)
		j2, _ := json.Marshal(m2)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("round trip changed the message:\n first: %s\nsecond: %s", j1, j2)
		}
	})
}

// FuzzInboxReuse pins the receive half of the ownership rule: decoding
// frame b into an Inbox that last held frame a gives exactly what a fresh
// Read of b gives — the same error, or a message that re-encodes to the
// same bytes — whatever a was: another kind, another payload length, a
// trace context b lacks, or a frame the reader rejected. Nothing of an
// earlier frame may show through a later one.
func FuzzInboxReuse(f *testing.F) {
	ctx := func(m *Message) *Message {
		if m.Upload != nil {
			m.Upload.TraceID, m.Upload.SpanID = "00000000deadbeef", "00000000cafef00d"
		} else {
			m.Broadcast.TraceID, m.Broadcast.SpanID = "00000000deadbeef", "00000000cafef00d"
		}
		return m
	}
	frames := [][]byte{
		encodeSeed(f, ctx(&Message{Upload: &Upload{Round: 9, VehicleID: 4, Values: []float64{1, math.NaN(), 3, 4}}})),
		encodeSeed(f, &Message{Upload: &Upload{Round: 2, VehicleID: 1, Values: []float64{-0.5}}}),
		encodeSeed(f, &Message{Upload: &Upload{Round: 3, VehicleID: 2}}),
		encodeSeed(f, &Message{Upload: &Upload{Round: 4, VehicleID: 1, Values: []float64{8, 9, 0.5}, Words: 2}}),
		encodeSeed(f, ctx(&Message{Upload: &Upload{Round: 5, VehicleID: 3, Values: []float64{1, math.NaN(), 3}, Words: 3}})),
		encodeSeed(f, ctx(&Message{Broadcast: &Broadcast{Round: 5, Params: []float64{0.25, -1, 2}}})),
		encodeSeed(f, &Message{Broadcast: &Broadcast{Round: 6, Params: []float64{7}}}),
		encodeSeed(f, &Message{Finished: &Finished{Rounds: 3}}),
		encodeSeed(f, &Message{Setup: &Setup{InputSize: 1, RefX: [][]float64{{1}, {2}},
			SchemeVehicles: 3, SchemeBatches: 2, SchemeDegree: 1, WireVersion: Version}}),
		rawFrame([]byte{0xB3, 0x02, 1, 0, 0, 0, 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}),
	}
	corrupt := append([]byte(nil), frames[1]...)
	corrupt[len(corrupt)-1] ^= 0xff
	frames = append(frames, corrupt)
	for _, a := range frames {
		for _, b := range frames {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var in Inbox
		_, _ = ReadBuffered(bytes.NewReader(a), &in)
		got, gotErr := ReadBuffered(bytes.NewReader(b), &in)
		want, wantErr := Read(bytes.NewReader(b))
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("reused inbox: %v; fresh read: %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		var gotBuf, wantBuf bytes.Buffer
		if err := WriteVersion(&gotBuf, got, Version); err != nil {
			t.Fatalf("message from a reused inbox does not re-encode: %v", err)
		}
		if err := WriteVersion(&wantBuf, want, Version); err != nil {
			t.Fatalf("fresh message does not re-encode: %v", err)
		}
		if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
			t.Fatalf("reused inbox decoded b differently:\n  got %x\n want %x", gotBuf.Bytes(), wantBuf.Bytes())
		}
	})
}
