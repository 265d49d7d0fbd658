// Package protocol defines the wire messages exchanged between the fusion
// centre and the vehicles when L-CoFL runs as an actual distributed system
// (package transport carries them; package node speaks them).
//
// Every message travels in one frame: a 4-byte big-endian body length, a
// 4-byte CRC-32 (IEEE) of the body, then the body. The length bounds
// message size so a malformed or malicious peer cannot force unbounded
// allocation, and the checksum turns channel corruption into a
// *detected*, frame-local error: Read consumes the corrupted frame
// entirely and returns ErrCorruptFrame, so the stream stays in sync and
// the caller can keep reading subsequent frames instead of tearing the
// connection down (package node counts these and prompts a retransmit;
// see DESIGN.md §11).
//
// A body has exactly one of two forms, told apart by its first byte
// (DESIGN.md §13.3). The control messages — Hello, Admission, Finished,
// Error — are a JSON envelope {type: payload}, which keeps the handshake
// debuggable and lets optional keys come and go. The three bulk messages —
// Setup, Broadcast and Upload, the ones that carry float vectors — are a
// binary body: a magic byte that cannot open a JSON value, a kind byte,
// fixed-width integers and raw little-endian float64 bits. An Upload's
// leading values that are exact 32-bit unsigned integers — the halves of
// its verification symbols — may travel as 4-byte words instead, as many
// as Upload.Words declares. The rest of an Upload — its learning-channel
// estimates, which the clamped activation pins at +0 or 1.0 most of the
// time — travels as a 2-bit class per value, followed by the 8-byte bits
// of only those values that are neither. A bulk message has no JSON form
// and a control message no binary one, on the write side and on the read
// side.
//
// There is one wire revision, Version. The Hello/Setup handshake still
// carries revision numbers so that a later revision can be introduced: a
// peer announcing less than Version is refused with an Error frame, a
// peer announcing more is answered at Version (package node, recvHello).
package protocol

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
)

// Version is the one protocol revision this build speaks, carried in
// Hello messages and echoed in Setup.WireVersion.
const Version = 7

// ErrCorruptFrame reports a frame whose body failed its CRC-32 check. The
// frame has been fully consumed when Read returns it, so the connection
// remains usable: callers that can tolerate message loss (the chaos-aware
// node layer) match it with errors.Is, count the corruption, and continue
// reading.
var ErrCorruptFrame = errors.New("protocol: corrupt frame (checksum mismatch)")

// MaxMessageSize bounds a single frame (16 MiB) — far above any real
// L-CoFL message, low enough to stop allocation bombs.
const MaxMessageSize = 16 << 20

// Message is the union of all wire messages. Exactly one pointer field is
// non-nil. The bulk variants are invisible to the JSON envelope: they
// travel only as binary bodies.
type Message struct {
	Hello     *Hello     `json:"hello,omitempty"`
	Setup     *Setup     `json:"-"`
	Broadcast *Broadcast `json:"-"`
	Upload    *Upload    `json:"-"`
	Admission *Admission `json:"admission,omitempty"`
	Finished  *Finished  `json:"finished,omitempty"`
	Error     *Error     `json:"error,omitempty"`
}

// Hello opens a connection: the vehicle announces itself.
type Hello struct {
	// Version is the sender's protocol revision.
	Version int `json:"version"`
	// VehicleID identifies the vehicle (assigned out of band).
	VehicleID int `json:"vehicle_id"`
	// TraceID is the vehicle process's own trace ID (canonical 16-digit
	// hex, see internal/obs FormatID), recorded by the fusion centre so
	// a merged timeline can link per-process trace files. Empty when the
	// vehicle runs untraced.
	TraceID string `json:"trace_id,omitempty"`
	// SessionID names the FL session this connection joins on a
	// multi-session fleet. Empty selects the fleet's default session; a
	// single-session fusion centre ignores it.
	SessionID string `json:"session_id,omitempty"`
}

// Setup configures a vehicle at session start.
type Setup struct {
	// InputSize is the feature-vector length.
	InputSize int
	// LocalEpochs and LocalRate configure local SGD (paper eq. 1).
	LocalEpochs int
	LocalRate   float64
	// ActivationCoeffs holds the polynomial activation the vehicles must
	// install (paper §IV Step 2); empty means the exact symmetric
	// sigmoid.
	ActivationCoeffs []float64
	// RefX is the fusion centre's reference feature set: rectangular, and
	// without zero-width rows.
	RefX [][]float64
	// SchemeVehicles, SchemeBatches, SchemeDegree and SchemeSeed are the
	// (deterministic) L-CoFL scheme's parameters: from them and its own ID
	// a vehicle derives its encoded share (core.NewShare), bit-identical
	// to the one the fusion centre holds for it.
	SchemeVehicles int
	SchemeBatches  int
	SchemeDegree   int
	SchemeSeed     int64
	// WireVersion is the protocol revision the fusion centre negotiated
	// for this connection: min(its own Version, the vehicle's Hello
	// version), which the handshake floor makes Version itself today. A
	// vehicle refuses a Setup that names less (an older fusion centre).
	WireVersion int
	// TraceID is the session trace every process joins (derived from
	// SchemeSeed on both sides; carried explicitly so a vehicle adopts
	// the fusion centre's trace even if derivation rules ever diverge
	// across releases). Empty when the fusion centre runs untraced.
	TraceID string
	// HelloNs and ClockNs are the fusion centre's clock readings (ns
	// since its obs.Clock epoch) when the connection's Hello arrived and
	// when this Setup was sent. With the vehicle's own send/receive
	// stamps they give the RTT-midpoint clock-offset estimate recorded
	// as the node.clock_offset trace event (DESIGN.md §15). Zero when
	// the fusion centre runs untraced.
	HelloNs int64
	ClockNs int64
}

// Broadcast starts a round: the shared model parameters.
type Broadcast struct {
	// Round is the 1-based round number.
	Round int
	// Params is the shared model's flat parameter vector.
	Params []float64
	// TraceID/SpanID carry the fusion centre's round span context so
	// vehicle-side train/encode/upload spans can parent under it. Both
	// canonical 16-digit hex; empty when tracing is off.
	TraceID string
	SpanID  string
}

// Upload carries a vehicle's round contribution.
type Upload struct {
	// Round echoes the broadcast round.
	Round int
	// VehicleID names the sender. The fusion centre attributes an upload
	// to the vehicle that handshaked the connection it arrived on, never
	// to this field.
	VehicleID int
	// Values is the scheme-defined upload vector.
	Values []float64
	// Words is how many leading Values the sender declares as 32-bit
	// words, in [0, len(Values)]. The encoder writes the leading run of
	// those values that are each exactly float64(uint32(v)), bit for bit,
	// as 4-byte words, and everything after the run as float64 bits, so a
	// value outside the rule (NaN, negative, −0, fractional) ends the run
	// and still arrives exactly. A decoded Upload has Words set to the
	// number of values its frame carried as words.
	Words int
	// TraceID/SpanID carry the vehicle's upload span context so the
	// fusion centre's ingest event can parent under the send that
	// produced it. Empty when tracing is off.
	TraceID string
	SpanID  string
}

// Admission answers a Hello on a fleet-scale fusion centre when Setup
// cannot follow immediately: the connection was queued behind the
// fleet's connection budget, or rejected outright. Acceptance is implied
// by Setup itself, so an admitted vehicle never waits on an extra frame.
type Admission struct {
	// Queued reports the connection is parked in the fleet's admission
	// queue; the vehicle should keep waiting for Setup.
	Queued bool `json:"queued,omitempty"`
	// Reason describes a rejection (or the queueing) in human terms.
	Reason string `json:"reason,omitempty"`
	// Retry hints that a rejection is temporary — the fleet was full —
	// and a later reconnect may be admitted.
	Retry bool `json:"retry,omitempty"`
}

// Finished ends the session.
type Finished struct {
	// Rounds is the number of completed rounds.
	Rounds int `json:"rounds"`
}

// Error reports a fatal condition to the peer before closing.
type Error struct {
	// Reason is a human-readable description.
	Reason string `json:"reason"`
}

// Kind returns the message discriminator ("hello", "upload", …) — used
// in errors and as the message-type label on transport telemetry.
func (m *Message) Kind() string { return m.kind() }

// TraceContext returns the trace/span context the message carries
// ("", "" when none): round context on the bulk messages, the session
// trace on Hello/Setup. Transport telemetry attaches it to the
// per-message send/recv events.
func (m *Message) TraceContext() (trace, span string) {
	switch {
	case m.Broadcast != nil:
		return m.Broadcast.TraceID, m.Broadcast.SpanID
	case m.Upload != nil:
		return m.Upload.TraceID, m.Upload.SpanID
	case m.Hello != nil:
		return m.Hello.TraceID, ""
	case m.Setup != nil:
		return m.Setup.TraceID, ""
	}
	return "", ""
}

// EncodedSizeVersion returns the size WriteVersion's frame for m is
// accounted at — the 4-byte length prefix plus the body, the CRC left
// out — or 0 when a control message cannot marshal. For the bulk
// messages it is pure arithmetic; a control message (a few dozen bytes)
// is marshalled to be measured. The instrumented transport uses it to
// account bytes per connection. version is unused for the reason
// AppendFrame gives.
func EncodedSizeVersion(m *Message, version int) int {
	if m.isBulk() {
		return 4 + binaryBodyLen(m)
	}
	body, err := json.Marshal(m)
	if err != nil {
		return 0
	}
	return 4 + len(body)
}

// isBulk reports whether m travels as a binary body.
func (m *Message) isBulk() bool {
	return m.Setup != nil || m.Broadcast != nil || m.Upload != nil
}

// kind returns the message discriminator for validation and errors.
func (m *Message) kind() string {
	switch {
	case m.Hello != nil:
		return "hello"
	case m.Setup != nil:
		return "setup"
	case m.Broadcast != nil:
		return "broadcast"
	case m.Upload != nil:
		return "upload"
	case m.Admission != nil:
		return "admission"
	case m.Finished != nil:
		return "finished"
	case m.Error != nil:
		return "error"
	}
	return ""
}

// Validate checks that exactly one variant is set.
func (m *Message) Validate() error {
	count := 0
	for _, set := range []bool{
		m.Hello != nil, m.Setup != nil, m.Broadcast != nil,
		m.Upload != nil, m.Admission != nil,
		m.Finished != nil, m.Error != nil,
	} {
		if set {
			count++
		}
	}
	if count != 1 {
		return fmt.Errorf("protocol: message must carry exactly one variant, has %d", count)
	}
	return nil
}

// headerLen is the frame header size: 4-byte length + 4-byte CRC-32.
const headerLen = 8

// Binary body of the bulk messages (DESIGN.md §13.3):
//
//	byte 0: binaryMagic (0xB3)
//	byte 1: kind
//	broadcast:     round u32, count u32, count x 8-byte float64 bits
//	upload:        round u32, vehicle u32, count u32, words u32,
//	               words x u32, class map of the t = count - words tail
//	               (ceil(t/4) bytes), literals x 8-byte float64 bits
//	broadcast+ctx: trace u64, span u64, then as broadcast
//	upload+ctx:    trace u64, span u64, then as upload
//	setup:         input u32, epochs u32, rate f64, vehicles u32,
//	               batches u32, degree u32, seed i64, wire u32,
//	               hello_ns i64, clock_ns i64, trace u64 (0: none),
//	               coeffs u32, rows u32, cols u32,
//	               coeffs x 8 bytes, rows x cols x 8 bytes
//
// all little-endian. 0xB3 cannot open a JSON value, so the first byte
// decides the body form. Floats travel as IEEE 754 bit patterns, NaN
// payloads included. The context kinds prefix the trace and span IDs; a
// context kind with either ID zero is rejected, and so is a setup with
// exactly one of rows and cols zero, so every accepted frame re-encodes
// to identical bytes: an upload's words decode to float64(u32), which the
// word rule takes back as words, and its words count is the decoded
// Upload.Words. Kind 5 was a relay's combined upload and stays refused.
//
// An upload's class map holds 2 bits per tail value, value i at bit
// 2·(i mod 4) of byte i/4: classZero for the bits of +0 (−0 is a
// literal), classOne for the bits of 1.0, classLiteral for a value whose
// 8 bytes follow the map, in tail order. Class 3, non-zero padding bits
// after the last value and a literal of +0 or 1.0 are refused, and so is
// a body the map and its literals do not fill exactly, so the tail too
// has one encoding.
const binaryMagic = 0xB3

const (
	binaryKindBroadcast    = 1
	binaryKindUpload       = 2
	binaryKindBroadcastCtx = 3
	binaryKindUploadCtx    = 4
	binaryKindSetup        = 6
)

// setupFixedLen is the setup body's fixed part, magic and kind included.
const setupFixedLen = 2 + 76

// maxBinaryValues caps the value count so a broadcast or upload body
// respects MaxMessageSize even under the largest (upload+ctx) header, 34
// bytes, with every value a float64. (An upload's class map can still
// push its densest body past the limit; appendFrame refuses that frame.)
const maxBinaryValues = (MaxMessageSize - 34) / 8

// Classes of an upload's tail value in its class map.
const (
	classZero    = 0
	classOne     = 1
	classLiteral = 2
)

// oneBits is math.Float64bits(1), the clamped activation's upper end.
const oneBits = 0x3ff0_0000_0000_0000

// tailClass returns v's class in an upload's class map.
func tailClass(v float64) byte {
	switch math.Float64bits(v) {
	case 0:
		return classZero
	case oneBits:
		return classOne
	}
	return classLiteral
}

// mapLen is the length of the class map of t tail values.
func mapLen(t int) int { return (t + 3) / 4 }

// literals counts the tail values that travel as 8-byte bits. It does
// not branch on a value's class: the classes of clamped estimates follow
// no pattern a branch predictor learns, and a branch per value cost four
// times as much. (b | -b) >> 63 is 1 exactly when b != 0.
func literals(tail []float64) int {
	n := 0
	for _, v := range tail {
		b := math.Float64bits(v)
		x := b ^ oneBits
		n += int((b | -b) & (x | -x) >> 63)
	}
	return n
}

// mapLiterals checks a class map of t values — no class 3, zero padding
// bits after the last value — and counts its literals.
func mapLiterals(classes []byte, t int) (int, bool) {
	n := 0
	for _, b := range classes {
		if b&(b>>1)&0x55 != 0 { // both bits of some class set: class 3
			return 0, false
		}
		n += bits.OnesCount8(b >> 1 &^ b & 0x55) // high bit alone: a literal
	}
	if r := t % 4; r != 0 && classes[len(classes)-1]>>(2*r) != 0 {
		return 0, false
	}
	return n, true
}

// uploadBodyBound is the largest body an upload of count values can
// take: trace context, no words, and every value a literal. A buffer sized
// to it once holds every upload of that shape, however its values pack.
func uploadBodyBound(count int) int { return 34 + mapLen(count) + 8*count }

// uploadCountEnd is how far into a body an upload's count reaches: magic,
// kind, trace and span, round, vehicle, count.
const uploadCountEnd = 30

// bodyBound returns uploadBodyBound for an upload body whose first bytes
// are head, and 0 for any other body or one too short to say.
func bodyBound(head []byte) int {
	if len(head) < 2 || head[0] != binaryMagic {
		return 0
	}
	at := 10
	switch head[1] {
	case binaryKindUpload:
	case binaryKindUploadCtx:
		at += 16
	default:
		return 0
	}
	if len(head) < at+4 {
		return 0
	}
	count := binary.LittleEndian.Uint32(head[at:])
	if count > maxBinaryValues {
		return 0
	}
	return uploadBodyBound(int(count))
}

// bulkEncodable reports whether a bulk message fits the binary body: its
// integer fields the fixed-width layout, its payload the frame limit, and
// its trace context ctxEncodable.
func bulkEncodable(m *Message) bool {
	if s := m.Setup; s != nil {
		for _, v := range []int{s.InputSize, s.LocalEpochs, s.SchemeVehicles, s.SchemeBatches, s.SchemeDegree, s.WireVersion} {
			if !fitsUint32(v) {
				return false
			}
		}
		// Rectangular, and no zero-width rows: the reader could bound
		// neither by the payload it has in hand.
		cols := refCols(s.RefX)
		for _, row := range s.RefX {
			if len(row) != cols || cols == 0 {
				return false
			}
		}
		t, canonical := canonicalID(s.TraceID)
		return setupFixedLen+8*(len(s.ActivationCoeffs)+len(s.RefX)*cols) <= MaxMessageSize &&
			(s.TraceID == "" || canonical && t != 0)
	}
	if b := m.Broadcast; b != nil {
		return fitsUint32(b.Round) && len(b.Params) <= maxBinaryValues &&
			ctxEncodable(b.TraceID, b.SpanID)
	}
	u := m.Upload
	return fitsUint32(u.Round) && fitsUint32(u.VehicleID) && len(u.Values) <= maxBinaryValues &&
		u.Words >= 0 && u.Words <= len(u.Values) && ctxEncodable(u.TraceID, u.SpanID)
}

// wordRun is how many of an upload's values travel as 4-byte words: the
// leading run, at most words long, of values that are each exactly the
// float64 of a uint32, bit for bit (so not −0). words is clamped to the
// values present, so sizing a message the encoder would refuse (a fabric
// that never encodes carries it) cannot fail.
func wordRun(values []float64, words int) int {
	words = max(0, min(words, len(values)))
	for i, v := range values[:words] {
		if math.Float64bits(float64(uint32(v))) != math.Float64bits(v) {
			return i
		}
	}
	return words
}

// ctxEncodable reports whether a (trace, span) pair fits a binary body:
// absent entirely, or a complete pair of canonical nonzero IDs. Anything
// else has no encoding — the fixed-width slots could only carry it
// rewritten.
func ctxEncodable(trace, span string) bool {
	if trace == "" && span == "" {
		return true
	}
	t, okT := canonicalID(trace)
	s, okS := canonicalID(span)
	return okT && okS && t != 0 && s != 0
}

// canonicalID parses an ID in canonical wire form — exactly 16 lowercase
// hex digits — and reports whether it was one.
func canonicalID(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < 16; i++ {
		var d uint64
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// formatID16 renders an ID in canonical wire form (the inverse of
// canonicalID); zero — "no context" — renders as "".
func formatID16(id uint64) string {
	if id == 0 {
		return ""
	}
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = "0123456789abcdef"[id&0xf]
		id >>= 4
	}
	return string(buf[:])
}

func fitsUint32(v int) bool { return v >= 0 && int64(v) <= math.MaxUint32 }

// refCols is the row width a reference set travels with: its first row's.
func refCols(refX [][]float64) int {
	if len(refX) == 0 {
		return 0
	}
	return len(refX[0])
}

// binaryBodyLen returns the body length of a bulk message.
func binaryBodyLen(m *Message) int {
	if s := m.Setup; s != nil {
		n := setupFixedLen + 8*len(s.ActivationCoeffs)
		for _, row := range s.RefX {
			n += 8 * len(row)
		}
		return n
	}
	if b := m.Broadcast; b != nil {
		n := 10 + 8*len(b.Params)
		if b.TraceID != "" {
			n += 16
		}
		return n
	}
	u := m.Upload
	w := wordRun(u.Values, u.Words)
	tail := u.Values[w:]
	n := 18 + 4*w + mapLen(len(tail)) + 8*literals(tail)
	if u.TraceID != "" {
		n += 16
	}
	return n
}

// appendBinary encodes a bulk message that is bulkEncodable into dst.
func appendBinary(dst []byte, m *Message) []byte {
	if s := m.Setup; s != nil {
		le := binary.LittleEndian
		trace, _ := canonicalID(s.TraceID) // "" parses as 0: no trace
		dst = append(dst, binaryMagic, binaryKindSetup)
		dst = le.AppendUint32(dst, uint32(s.InputSize))
		dst = le.AppendUint32(dst, uint32(s.LocalEpochs))
		dst = le.AppendUint64(dst, math.Float64bits(s.LocalRate))
		dst = le.AppendUint32(dst, uint32(s.SchemeVehicles))
		dst = le.AppendUint32(dst, uint32(s.SchemeBatches))
		dst = le.AppendUint32(dst, uint32(s.SchemeDegree))
		dst = le.AppendUint64(dst, uint64(s.SchemeSeed))
		dst = le.AppendUint32(dst, uint32(s.WireVersion))
		dst = le.AppendUint64(dst, uint64(s.HelloNs))
		dst = le.AppendUint64(dst, uint64(s.ClockNs))
		dst = le.AppendUint64(dst, trace)
		dst = le.AppendUint32(dst, uint32(len(s.ActivationCoeffs)))
		dst = le.AppendUint32(dst, uint32(len(s.RefX)))
		dst = le.AppendUint32(dst, uint32(refCols(s.RefX)))
		dst = appendFloats(dst, s.ActivationCoeffs)
		for _, row := range s.RefX {
			dst = appendFloats(dst, row)
		}
		return dst
	}
	if b := m.Broadcast; b != nil {
		if b.TraceID == "" {
			dst = append(dst, binaryMagic, binaryKindBroadcast)
		} else {
			trace, _ := canonicalID(b.TraceID)
			span, _ := canonicalID(b.SpanID)
			dst = append(dst, binaryMagic, binaryKindBroadcastCtx)
			dst = binary.LittleEndian.AppendUint64(dst, trace)
			dst = binary.LittleEndian.AppendUint64(dst, span)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Round))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Params)))
		return appendFloats(dst, b.Params)
	}
	u := m.Upload
	if u.TraceID == "" {
		dst = append(dst, binaryMagic, binaryKindUpload)
	} else {
		trace, _ := canonicalID(u.TraceID)
		span, _ := canonicalID(u.SpanID)
		dst = append(dst, binaryMagic, binaryKindUploadCtx)
		dst = binary.LittleEndian.AppendUint64(dst, trace)
		dst = binary.LittleEndian.AppendUint64(dst, span)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(u.Round))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(u.VehicleID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(u.Values)))
	w := wordRun(u.Values, u.Words)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w))
	for _, v := range u.Values[:w] {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	tail := u.Values[w:]
	classes := len(dst)
	dst = append(dst, make([]byte, mapLen(len(tail)))...)
	for i, v := range tail {
		c := tailClass(v)
		dst[classes+i/4] |= c << (2 * (i % 4))
		if c == classLiteral {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

func appendFloats(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// cursor reads a binary body's fixed-width fields front to back. It is a
// value the parser owns, so reading through it leaves nothing on the heap;
// the caller checks the length of everything it reads.
type cursor struct{ b []byte }

func (c *cursor) u32() uint32 {
	v := binary.LittleEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

func (c *cursor) u64() uint64 {
	v := binary.LittleEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

// ctx consumes the trace/span prefix of a context kind. Partial or zero
// context is a frame-local error: only complete contexts are ever written
// (see ctxEncodable), so every accepted frame re-encodes to identical
// bytes.
func (c *cursor) ctx(kindName string) (trace, span string, err error) {
	t, s := c.u64(), c.u64()
	if t == 0 || s == 0 {
		return "", "", fmt.Errorf("protocol: binary %s carries a zero trace/span ID", kindName)
	}
	return formatID16(t), formatID16(s), nil
}

// parseBinary decodes a binary body (first byte already known to be
// binaryMagic). A Broadcast or Upload is decoded into in, overwriting
// what in held; a Setup is freshly allocated. Every length is validated
// exactly: a body that is too short, too long, or over-counted is a
// frame-local error, mirroring the strictness JSON unmarshalling provides
// on the text path.
func parseBinary(body []byte, in *Inbox) (*Message, error) {
	if len(body) < 2 {
		return nil, fmt.Errorf("protocol: binary body of %d bytes lacks a kind", len(body))
	}
	kind := body[1]
	c := cursor{body[2:]}
	switch kind {
	case binaryKindBroadcast, binaryKindBroadcastCtx:
		minLen := 8
		if kind == binaryKindBroadcastCtx {
			minLen += 16
		}
		if len(c.b) < minLen {
			return nil, fmt.Errorf("protocol: binary broadcast header truncated (%d bytes)", len(c.b))
		}
		var bc Broadcast
		if kind == binaryKindBroadcastCtx {
			var err error
			if bc.TraceID, bc.SpanID, err = c.ctx("broadcast"); err != nil {
				return nil, err
			}
		}
		bc.Round = int(c.u32())
		count := c.u32()
		if count > maxBinaryValues || len(c.b) != 8*int(count) {
			return nil, fmt.Errorf("protocol: binary broadcast declares %d values in %d payload bytes", count, len(c.b))
		}
		bc.Params = in.values(int(count))
		readFloats(bc.Params, c.b)
		in.bc = bc
		in.msg = Message{Broadcast: &in.bc}
		return &in.msg, nil
	case binaryKindUpload, binaryKindUploadCtx:
		minLen := 16
		if kind == binaryKindUploadCtx {
			minLen += 16
		}
		if len(c.b) < minLen {
			return nil, fmt.Errorf("protocol: binary upload header truncated (%d bytes)", len(c.b))
		}
		var up Upload
		if kind == binaryKindUploadCtx {
			var err error
			if up.TraceID, up.SpanID, err = c.ctx("upload"); err != nil {
				return nil, err
			}
		}
		up.Round = int(c.u32())
		up.VehicleID = int(c.u32())
		count, words := c.u32(), c.u32()
		// Every length is checked, the class map's included, before a
		// value is written.
		t := int(count - words)
		if words > count || count > maxBinaryValues || len(c.b) < 4*int(words)+mapLen(t) {
			return nil, fmt.Errorf("protocol: binary upload declares %d values, %d of them words, in %d payload bytes", count, words, len(c.b))
		}
		classes := c.b[4*words:][:mapLen(t)]
		lits, ok := mapLiterals(classes, t)
		if !ok {
			return nil, fmt.Errorf("protocol: binary upload's class map of %d values holds class 3 or padding bits", t)
		}
		if len(c.b) != 4*int(words)+len(classes)+8*lits {
			return nil, fmt.Errorf("protocol: binary upload declares %d values, %d of them words and %d literals, in %d payload bytes", count, words, lits, len(c.b))
		}
		for b := c.b[4*int(words)+len(classes):]; len(b) > 0; b = b[8:] {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(b)); tailClass(v) != classLiteral {
				return nil, fmt.Errorf("protocol: binary upload carries %v as a literal, which has a class of its own", v)
			}
		}
		up.Words = int(words)
		up.Values = in.values(int(count))
		readUpload(up.Values, c.b, up.Words)
		in.up = up
		in.msg = Message{Upload: &in.up}
		return &in.msg, nil
	case binaryKindSetup:
		if len(body) < setupFixedLen {
			return nil, fmt.Errorf("protocol: binary setup header truncated (%d bytes)", len(c.b))
		}
		su := &Setup{}
		su.InputSize = int(c.u32())
		su.LocalEpochs = int(c.u32())
		su.LocalRate = math.Float64frombits(c.u64())
		su.SchemeVehicles = int(c.u32())
		su.SchemeBatches = int(c.u32())
		su.SchemeDegree = int(c.u32())
		su.SchemeSeed = int64(c.u64())
		su.WireVersion = int(c.u32())
		su.HelloNs = int64(c.u64())
		su.ClockNs = int64(c.u64())
		su.TraceID = formatID16(c.u64())
		coeffs, rows, cols := uint64(c.u32()), uint64(c.u32()), uint64(c.u32())
		rest := c.b
		// Three u32 counts cannot overflow this sum, and it must equal the
		// floats actually present before any of them sizes an allocation;
		// rows and cols are zero together so that neither escapes the check.
		if (rows == 0) != (cols == 0) || len(rest)%8 != 0 || coeffs+rows*cols != uint64(len(rest)/8) {
			return nil, fmt.Errorf("protocol: binary setup declares %d coefficients and %d x %d reference values in %d payload bytes", coeffs, rows, cols, len(rest))
		}
		if coeffs > 0 {
			su.ActivationCoeffs = make([]float64, coeffs)
			readFloats(su.ActivationCoeffs, rest)
		}
		if rows > 0 {
			flat := make([]float64, rows*cols)
			readFloats(flat, rest[8*coeffs:])
			su.RefX = make([][]float64, rows)
			for i := range su.RefX {
				su.RefX[i] = flat[i*int(cols) : (i+1)*int(cols) : (i+1)*int(cols)]
			}
		}
		return &Message{Setup: su}, nil
	}
	return nil, fmt.Errorf("protocol: unknown binary message kind %d", kind)
}

// readFloats decodes len(out) float64 bit patterns from b.
func readFloats(out []float64, b []byte) {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// readUpload decodes an upload payload b that parseBinary has checked
// into out: words 4-byte words, then the tail's class map and literals.
func readUpload(out []float64, b []byte, words int) {
	for i := range out[:words] {
		out[i] = float64(binary.LittleEndian.Uint32(b[4*i:]))
	}
	tail := out[words:]
	classes := b[4*words:]
	lits := classes[mapLen(len(tail)):]
	for i := range tail {
		switch classes[i/4] >> (2 * (i % 4)) & 3 {
		case classZero:
			tail[i] = 0
		case classOne:
			tail[i] = 1
		default:
			tail[i] = math.Float64frombits(binary.LittleEndian.Uint64(lits))
			lits = lits[8:]
		}
	}
}

// Write frames and writes one message at Version.
func Write(w io.Writer, m *Message) error {
	return WriteVersion(w, m, Version)
}

// WriteVersion frames and writes one message for a connection that
// negotiated the given revision (see AppendFrame). Header and body leave
// in one Write.
func WriteVersion(w io.Writer, m *Message, version int) error {
	frame, err := AppendFrame(nil, m, version)
	if err != nil {
		return err
	}
	return writeWhole(w, frame)
}

// WriteCorrupt frames and writes one message with a deliberately wrong
// checksum, so the receiver's Read returns ErrCorruptFrame while the
// stream stays in sync. It exists for the fault-injection layer
// (internal/chaos via transport's Faulter): end-to-end tests exercise the
// real detection path instead of simulating it.
func WriteCorrupt(w io.Writer, m *Message) error {
	frame, err := appendFrame(nil, m, 1)
	if err != nil {
		return err
	}
	return writeWhole(w, frame)
}

func writeWhole(w io.Writer, frame []byte) error {
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("protocol: write frame: %w", err)
	}
	return nil
}

// AppendFrame appends the complete frame for m — header, then body — to
// dst and returns the extended slice. A connection that keeps dst between
// sends frames its steady-state (binary) traffic without allocating: an
// upload's frame is given room for the dense bound of its shape
// (uploadBodyBound, up to maxKept), so a kept dst does not regrow as the
// upload's packed size moves from round to round. A
// bulk message that does not fit the binary body (bulkEncodable) is an
// error: there is no other encoding to fall back to.
//
// version is the revision the connection negotiated. The handshake admits
// exactly one, Version, so nothing is selected by it today; it stays in
// the signature as the place a later revision's encoding would be gated.
func AppendFrame(dst []byte, m *Message, version int) ([]byte, error) {
	return appendFrame(dst, m, 0)
}

// appendFrame is AppendFrame with crcFlip XORed into the checksum (0 for
// an honest frame).
func appendFrame(dst []byte, m *Message, crcFlip uint32) ([]byte, error) {
	start := len(dst)
	if err := m.Validate(); err != nil {
		return dst, err
	}
	if m.isBulk() {
		if !bulkEncodable(m) {
			return dst, fmt.Errorf("protocol: %s does not fit the binary body (an integer outside 32 bits, a body over %d bytes, an upload's words count outside [0, values], a ragged or zero-width reference set, or a trace context that is not canonical nonzero IDs)", m.kind(), MaxMessageSize)
		}
		n := binaryBodyLen(m)
		if m.Upload != nil {
			n = max(n, min(uploadBodyBound(len(m.Upload.Values)), maxKept-headerLen))
		}
		dst = slices.Grow(dst, headerLen+n)
		dst = append(dst, make([]byte, headerLen)...) // filled in below
		dst = appendBinary(dst, m)
	} else {
		dst = append(dst, make([]byte, headerLen)...)
		body, err := json.Marshal(m)
		if err != nil {
			return dst[:start], fmt.Errorf("protocol: marshal %s: %w", m.kind(), err)
		}
		dst = append(dst, body...)
	}
	body := dst[start+headerLen:]
	if len(body) > MaxMessageSize {
		return dst[:start], fmt.Errorf("protocol: %s message of %d bytes exceeds limit", m.kind(), len(body))
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(body)^crcFlip)
	return dst, nil
}

// Read reads and validates one framed message, which is the caller's to
// keep: nothing else refers to it. A checksum mismatch returns an error
// wrapping ErrCorruptFrame with the frame fully consumed, so the caller
// may continue reading the stream.
func Read(r io.Reader) (*Message, error) {
	var in Inbox
	m, err := ReadBuffered(r, &in)
	in.frame = nil // the message keeps in alive; it need not keep the frame
	return m, err
}

// maxKept bounds what an Inbox retains between reads, for the frame and
// for the payload alike: a larger one (a Setup carrying the reference set,
// an outsized upload) is dropped at the next read, so it does not pin its
// size for the connection's life.
const maxKept = 64 << 10

// Inbox is what one receiving connection reuses from frame to frame: the
// frame buffer, and the Broadcast or Upload decoded last with its payload.
// The zero value is ready to use. It is not safe for concurrent use.
type Inbox struct {
	frame []byte
	msg   Message
	bc    Broadcast
	up    Upload
	vals  []float64 // backing of bc.Params or up.Values
}

// values returns the inbox's value buffer sized to count, allocating only
// when it is too small.
func (in *Inbox) values(count int) []float64 {
	if count == 0 {
		return nil // as a fresh decode has it; the buffer stays for the next
	}
	if cap(in.vals) < count {
		in.vals = make([]float64, count)
	}
	return in.vals[:count]
}

// ReadBuffered is Read through a connection's Inbox, and the two halves of
// transport.Conn's ownership rule on the receive side. A Broadcast or
// Upload, payload included, is decoded into storage the inbox owns: it is
// valid until the next ReadBuffered on the same inbox, which overwrites
// it, so a connection's steady-state reads allocate nothing. A Setup or
// control message (Hello, Admission, Finished, Error) is allocated fresh
// and is the caller's to keep. The frame buffer is left in the inbox for
// the next call. It grows to the largest frame seen, and for an upload at
// once to the dense bound of its shape (uploadBodyBound): an upload's
// size moves with how its values pack, and a buffer that followed it
// would regrow round after round.
func ReadBuffered(r io.Reader, in *Inbox) (*Message, error) {
	// What the last read outgrew is dropped now that its message is no
	// longer valid.
	if cap(in.frame) > maxKept {
		in.frame = nil
	}
	if 8*cap(in.vals) > maxKept {
		in.vals = nil
	}
	if cap(in.frame) < headerLen {
		in.frame = make([]byte, headerLen, 512)
	}
	header := in.frame[:headerLen]
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	size := binary.BigEndian.Uint32(header[:4])
	sum := binary.BigEndian.Uint32(header[4:])
	if size > MaxMessageSize {
		return nil, fmt.Errorf("protocol: incoming frame of %d bytes exceeds limit", size)
	}
	// The body's head says whether it is an upload, and of how many values,
	// before the buffer is sized for the rest.
	n := min(int(size), uploadCountEnd)
	if _, err := io.ReadFull(r, in.frame[:n]); err != nil {
		return nil, fmt.Errorf("protocol: read body: %w", err)
	}
	if want := max(int(size), min(bodyBound(in.frame[:n]), maxKept)); want > cap(in.frame) {
		grown := make([]byte, want)
		copy(grown, in.frame[:n])
		in.frame = grown
	}
	body := in.frame[:size]
	if _, err := io.ReadFull(r, body[n:]); err != nil {
		return nil, fmt.Errorf("protocol: read body: %w", err)
	}
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: %d-byte frame, checksum %08x want %08x", ErrCorruptFrame, size, got, sum)
	}
	if len(body) > 0 && body[0] == binaryMagic {
		return parseBinary(body, in)
	}
	// A JSON body naming a bulk variant (or anything else the envelope
	// does not know) unmarshals to no variant at all and fails Validate.
	var m Message
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("protocol: unmarshal: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
