// Package protocol defines the wire messages exchanged between the fusion
// centre and the vehicles when L-CoFL runs as an actual distributed system
// (package transport carries them; package node speaks them).
//
// Messages are length-prefixed, checksummed JSON: a 4-byte big-endian
// length, a 4-byte CRC-32 (IEEE) of the body, then a JSON envelope
// {type, payload}. JSON keeps the wire debuggable and the stdlib-only
// constraint satisfied; the framing bounds message size so a malformed or
// malicious peer cannot force unbounded allocation, and the checksum turns
// channel corruption into a *detected*, frame-local error: Read consumes
// the corrupted frame entirely and returns ErrCorruptFrame, so the stream
// stays in sync and the caller can keep reading subsequent frames instead
// of tearing the connection down (package node counts these and prompts a
// retransmit; see DESIGN.md §11).
//
// Protocol revision 3 adds a binary body encoding for the two bulk
// messages (Broadcast and Upload): raw little-endian float64 payloads
// inside the same length+CRC frame, roughly 2.5x smaller than their
// decimal-text JSON form at realistic parameter counts (DESIGN.md §13).
// The encoding is negotiated per connection via the Hello version, so v2
// JSON-only peers interoperate: WriteVersion only emits binary bodies
// when the negotiated version is >= 3, and the binary marker byte cannot
// begin a JSON value, so a mis-delivered binary frame fails cleanly in a
// v2 decoder.
//
// Protocol revision 4 adds trace-context propagation (DESIGN.md §15):
// Hello/Setup establish the session trace and exchange the handshake
// clock readings used for offset estimation, and Broadcast/Upload carry
// the round span context. All context fields are optional — absent with
// tracing off, ignored by older peers (unknown JSON keys) — so the
// tracing-off wire is byte-identical to revision 3. Bulk messages WITH
// context use two new binary kinds (3, 4) emitted only at negotiated
// version >= 4; at version 3 a context-bearing bulk message falls back
// to JSON, which preserves the context for a v4 peer while a v2/v3 peer
// simply skips the unknown keys.
//
// Protocol revision 5 is the fleet revision (DESIGN.md §16): Hello gains
// an optional session ID so one listener can route connections to many
// concurrent FL sessions, Admission lets a fleet answer a handshake with
// an explicit queue/reject decision before any Setup exists, and Gather
// lets an edge relay combine its shard's uploads into one upstream frame
// (binary kind 5 for context-free payloads). All three degrade liberally:
// a v<=4 peer never receives Admission or Gather (rejections fall back to
// Error, gathering stays off on its legs) and its Hello simply lacks a
// session ID, which routes it to the fleet's default session.
package protocol

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Version is the protocol revision carried in Hello messages. Revision 2
// added the per-frame CRC-32 to the framing; revision 3 adds the binary
// body encoding for Broadcast and Upload; revision 4 adds trace-context
// propagation (binary kinds 3/4 and the optional JSON context fields);
// revision 5 adds the fleet messages (session routing, Admission,
// Gather).
const Version = 5

// FleetVersion is the first revision that understands the fleet
// messages: Hello.SessionID routing, Admission handshake answers, and
// relay Gather frames. Senders gate all three on the peer's negotiated
// version being at least this.
const FleetVersion = 5

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
// non-nil.
type Message struct {
	Hello     *Hello     `json:"hello,omitempty"`
	Setup     *Setup     `json:"setup,omitempty"`
	Broadcast *Broadcast `json:"broadcast,omitempty"`
	Upload    *Upload    `json:"upload,omitempty"`
	Gather    *Gather    `json:"gather,omitempty"`
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
	// multi-session fleet (revision 5). Empty — including every hello
	// from a v<=4 build, which has no such field — selects the fleet's
	// default session; a single-session fusion centre ignores it.
	SessionID string `json:"session_id,omitempty"`
}

// Setup configures a vehicle at session start.
type Setup struct {
	// InputSize is the feature-vector length.
	InputSize int `json:"input_size"`
	// LocalEpochs and LocalRate configure local SGD (paper eq. 1).
	LocalEpochs int     `json:"local_epochs"`
	LocalRate   float64 `json:"local_rate"`
	// ActivationCoeffs holds the polynomial activation the vehicles must
	// install (paper §IV Step 2); empty means the exact symmetric
	// sigmoid.
	ActivationCoeffs []float64 `json:"activation_coeffs,omitempty"`
	// RefX is the fusion centre's reference feature set.
	RefX [][]float64 `json:"ref_x"`
	// SchemeVehicles, SchemeBatches, SchemeDegree and SchemeSeed let the
	// vehicle rebuild the identical (deterministic) L-CoFL scheme so its
	// encoded shares match the fusion centre's.
	SchemeVehicles int   `json:"scheme_vehicles"`
	SchemeBatches  int   `json:"scheme_batches"`
	SchemeDegree   int   `json:"scheme_degree"`
	SchemeSeed     int64 `json:"scheme_seed"`
	// WireVersion is the protocol revision the fusion centre negotiated
	// for this connection: min(its own Version, the vehicle's Hello
	// version). Absent (0) means revision 2, the JSON-only encoding —
	// which is also how a revision-2 fusion centre, ignorant of the
	// field, is correctly interpreted.
	WireVersion int `json:"wire_version,omitempty"`
	// TraceID is the session trace every process joins (derived from
	// SchemeSeed on both sides; carried explicitly so a vehicle adopts
	// the fusion centre's trace even if derivation rules ever diverge
	// across releases). Empty when the fusion centre runs untraced.
	TraceID string `json:"trace_id,omitempty"`
	// HelloNs and ClockNs are the fusion centre's clock readings (ns
	// since its obs.Clock epoch) when the connection's Hello arrived and
	// when this Setup was sent. With the vehicle's own send/receive
	// stamps they give the RTT-midpoint clock-offset estimate recorded
	// as the node.clock_offset trace event (DESIGN.md §15). Zero when
	// the fusion centre runs untraced.
	HelloNs int64 `json:"hello_ns,omitempty"`
	ClockNs int64 `json:"clock_ns,omitempty"`
}

// Broadcast starts a round: the shared model parameters.
type Broadcast struct {
	// Round is the 1-based round number.
	Round int `json:"round"`
	// Params is the shared model's flat parameter vector.
	Params []float64 `json:"params"`
	// TraceID/SpanID carry the fusion centre's round span context so
	// vehicle-side train/encode/upload spans can parent under it. Both
	// canonical 16-digit hex; empty when tracing is off.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// Upload carries a vehicle's round contribution.
type Upload struct {
	// Round echoes the broadcast round.
	Round int `json:"round"`
	// VehicleID identifies the sender.
	VehicleID int `json:"vehicle_id"`
	// Values is the scheme-defined upload vector.
	Values []float64 `json:"values"`
	// TraceID/SpanID carry the vehicle's upload span context so the
	// fusion centre's ingest event can parent under the send that
	// produced it. Empty when tracing is off.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// Gather is an edge relay's combined upstream frame (revision 5): the
// uploads of several vehicles in the relay's shard, gathered into one
// frame so the fusion centre pays one read per shard burst instead of
// one per vehicle. Each inner upload is byte-equivalent to the frame the
// vehicle sent — round, sender and trace context included — so the
// fusion centre processes a gathered upload exactly like a direct one.
// Relays only emit Gather on connections whose negotiated version is
// >= FleetVersion; on older legs they stay transparent pipes.
type Gather struct {
	// Uploads holds the combined shard contributions, in the order the
	// relay absorbed them.
	Uploads []Upload `json:"uploads"`
}

// Admission answers a Hello on a fleet-scale fusion centre (revision 5)
// when Setup cannot follow immediately: the connection was queued behind
// the fleet's connection budget, or rejected outright. Acceptance is
// implied by Setup itself, so an admitted vehicle never waits on an
// extra frame. A v<=4 peer never sees Admission — rejections fall back
// to the Error message it already understands.
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

// EncodedSize returns the exact on-wire size of the message in bytes
// (4-byte length prefix plus JSON body), or 0 when it cannot marshal.
// The instrumented transport uses it to account bytes per connection.
func EncodedSize(m *Message) int {
	body, err := json.Marshal(m)
	if err != nil {
		return 0
	}
	return 4 + len(body)
}

// EncodedSizeVersion is EncodedSize under a negotiated protocol version:
// for messages WriteVersion would emit in binary form the size is pure
// arithmetic (no marshalling), otherwise it defers to EncodedSize.
func EncodedSizeVersion(m *Message, version int) int {
	if !binaryEligible(m, version) {
		return EncodedSize(m)
	}
	return 4 + binaryBodyLen(m)
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
	case m.Gather != nil:
		return "gather"
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
		m.Upload != nil, m.Gather != nil, m.Admission != nil,
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

// Binary body encoding (protocol revision 3, DESIGN.md §13). The body
// replaces the JSON envelope inside the unchanged length+CRC frame:
//
//	byte 0: binaryMagic (0xB3)
//	byte 1: kind (1 = broadcast, 2 = upload)
//	broadcast: round u32 LE, count u32 LE, count x 8-byte LE float64 bits
//	upload:    round u32 LE, vehicle u32 LE, count u32 LE, count x 8 bytes
//
// 0xB3 cannot open a JSON value, so a v2 decoder handed a binary frame
// fails with an ordinary unmarshal error — never a panic, never a
// misparse — and the stream stays in sync (the frame was length-consumed).
// Floats travel as IEEE 754 bit patterns, bit-exact round trips included
// for NaN payloads that JSON cannot represent at all.
const binaryMagic = 0xB3

// Revision 4 adds context-bearing variants of the two bulk kinds
// (DESIGN.md §15): the same layout prefixed with the trace and span IDs
// as little-endian u64. A context kind with either ID zero is rejected —
// partial context never rides the binary path, so every accepted frame
// re-encodes to identical bytes.
//
//	broadcast+ctx: trace u64 LE, span u64 LE, round u32, count u32, floats
//	upload+ctx:    trace u64 LE, span u64 LE, round u32, vehicle u32, count u32, floats
//
// Revision 5 adds the gather kind: a shard's context-free uploads packed
// back to back. Context-bearing gathers fall back to JSON — the traced
// path is diagnostic, not hot — so the binary layout stays flat:
//
//	gather: count u32, then per upload: round u32, vehicle u32, n u32,
//	        n x 8-byte LE float64 bits
const (
	binaryKindBroadcast    = 1
	binaryKindUpload       = 2
	binaryKindBroadcastCtx = 3
	binaryKindUploadCtx    = 4
	binaryKindGather       = 5
)

// maxBinaryValues caps the float count so a binary body respects
// MaxMessageSize even under the largest (upload+ctx) header.
const maxBinaryValues = (MaxMessageSize - 30) / 8

// binaryEligible reports whether WriteVersion encodes m as a binary body
// under the given negotiated version: bulk messages only, with integer
// fields that fit the fixed-width wire layout (anything else falls back
// to JSON, which both sides always accept). Trace context additionally
// requires version >= 4 and a canonical, complete (trace, span) pair —
// non-canonical IDs fall back to JSON, which round-trips any string
// byte-for-byte instead of silently rewriting it.
func binaryEligible(m *Message, version int) bool {
	if version < 3 {
		return false
	}
	switch {
	case m.Broadcast != nil:
		b := m.Broadcast
		if !fitsUint32(b.Round) || len(b.Params) > maxBinaryValues {
			return false
		}
		return ctxEligible(b.TraceID, b.SpanID, version)
	case m.Upload != nil:
		u := m.Upload
		if !fitsUint32(u.Round) || !fitsUint32(u.VehicleID) || len(u.Values) > maxBinaryValues {
			return false
		}
		return ctxEligible(u.TraceID, u.SpanID, version)
	case m.Gather != nil:
		if version < FleetVersion || len(m.Gather.Uploads) == 0 {
			return false
		}
		size := 6 // magic, kind, count u32
		for i := range m.Gather.Uploads {
			u := &m.Gather.Uploads[i]
			// Any trace context sends the whole gather to JSON: the
			// binary layout has no per-upload context slot.
			if u.TraceID != "" || u.SpanID != "" {
				return false
			}
			if !fitsUint32(u.Round) || !fitsUint32(u.VehicleID) {
				return false
			}
			size += 12 + 8*len(u.Values)
			if size > MaxMessageSize {
				return false
			}
		}
		return true
	}
	return false
}

// ctxEligible reports whether a (trace, span) pair fits a binary body at
// the negotiated version: absent entirely (the pre-v4 kinds), or — at
// version >= 4 — a complete pair of canonical nonzero IDs.
func ctxEligible(trace, span string, version int) bool {
	if trace == "" && span == "" {
		return true
	}
	if version < 4 {
		return false
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

// binaryBodyLen returns the body length of a binary-eligible message.
func binaryBodyLen(m *Message) int {
	if b := m.Broadcast; b != nil {
		n := 10 + 8*len(b.Params)
		if b.TraceID != "" {
			n += 16
		}
		return n
	}
	if g := m.Gather; g != nil {
		n := 6
		for i := range g.Uploads {
			n += 12 + 8*len(g.Uploads[i].Values)
		}
		return n
	}
	u := m.Upload
	n := 14 + 8*len(u.Values)
	if u.TraceID != "" {
		n += 16
	}
	return n
}

// appendBinary encodes a binary-eligible message into dst.
func appendBinary(dst []byte, m *Message) []byte {
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
		for _, v := range b.Params {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		return dst
	}
	if g := m.Gather; g != nil {
		dst = append(dst, binaryMagic, binaryKindGather)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g.Uploads)))
		for i := range g.Uploads {
			u := &g.Uploads[i]
			dst = binary.LittleEndian.AppendUint32(dst, uint32(u.Round))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(u.VehicleID))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(u.Values)))
			for _, v := range u.Values {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
			}
		}
		return dst
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
	for _, v := range u.Values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// parseBinary decodes a binary body (first byte already known to be
// binaryMagic). Every length is validated exactly: a body that is too
// short, too long, or over-counted is a frame-local error, mirroring the
// strictness JSON unmarshalling provides on the text path.
func parseBinary(body []byte) (*Message, error) {
	if len(body) < 2 {
		return nil, fmt.Errorf("protocol: binary body of %d bytes lacks a kind", len(body))
	}
	kind := body[1]
	rest := body[2:]
	readU32 := func() uint32 {
		v := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		return v
	}
	readU64 := func() uint64 {
		v := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		return v
	}
	// readCtx consumes the trace/span prefix of a context kind. Partial
	// or zero context is a frame-local error: only complete contexts ride
	// the binary path (see ctxEligible), so every accepted frame
	// re-encodes to identical bytes.
	readCtx := func(kindName string) (trace, span uint64, err error) {
		trace = readU64()
		span = readU64()
		if trace == 0 || span == 0 {
			return 0, 0, fmt.Errorf("protocol: binary %s carries a zero trace/span ID", kindName)
		}
		return trace, span, nil
	}
	switch kind {
	case binaryKindBroadcast, binaryKindBroadcastCtx:
		bc := &Broadcast{}
		minLen := 8
		if kind == binaryKindBroadcastCtx {
			minLen += 16
		}
		if len(rest) < minLen {
			return nil, fmt.Errorf("protocol: binary broadcast header truncated (%d bytes)", len(rest))
		}
		if kind == binaryKindBroadcastCtx {
			trace, span, err := readCtx("broadcast")
			if err != nil {
				return nil, err
			}
			bc.TraceID, bc.SpanID = formatID16(trace), formatID16(span)
		}
		bc.Round = int(readU32())
		count := readU32()
		if count > maxBinaryValues || len(rest) != 8*int(count) {
			return nil, fmt.Errorf("protocol: binary broadcast declares %d values in %d payload bytes", count, len(rest))
		}
		bc.Params = readFloats(rest, int(count))
		return &Message{Broadcast: bc}, nil
	case binaryKindUpload, binaryKindUploadCtx:
		up := &Upload{}
		minLen := 12
		if kind == binaryKindUploadCtx {
			minLen += 16
		}
		if len(rest) < minLen {
			return nil, fmt.Errorf("protocol: binary upload header truncated (%d bytes)", len(rest))
		}
		if kind == binaryKindUploadCtx {
			trace, span, err := readCtx("upload")
			if err != nil {
				return nil, err
			}
			up.TraceID, up.SpanID = formatID16(trace), formatID16(span)
		}
		up.Round = int(readU32())
		up.VehicleID = int(readU32())
		count := readU32()
		if count > maxBinaryValues || len(rest) != 8*int(count) {
			return nil, fmt.Errorf("protocol: binary upload declares %d values in %d payload bytes", count, len(rest))
		}
		up.Values = readFloats(rest, int(count))
		return &Message{Upload: up}, nil
	case binaryKindGather:
		if len(rest) < 4 {
			return nil, fmt.Errorf("protocol: binary gather header truncated (%d bytes)", len(rest))
		}
		count := readU32()
		if count == 0 || count > MaxMessageSize/12 {
			return nil, fmt.Errorf("protocol: binary gather declares %d uploads", count)
		}
		g := &Gather{Uploads: make([]Upload, 0, count)}
		for i := uint32(0); i < count; i++ {
			if len(rest) < 12 {
				return nil, fmt.Errorf("protocol: binary gather upload %d truncated (%d bytes)", i, len(rest))
			}
			var u Upload
			u.Round = int(readU32())
			u.VehicleID = int(readU32())
			n := readU32()
			if n > maxBinaryValues || len(rest) < 8*int(n) {
				return nil, fmt.Errorf("protocol: binary gather upload %d declares %d values in %d payload bytes", i, n, len(rest))
			}
			u.Values = readFloats(rest, int(n))
			rest = rest[8*int(n):]
			g.Uploads = append(g.Uploads, u)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("protocol: binary gather leaves %d trailing bytes", len(rest))
		}
		return &Message{Gather: g}, nil
	}
	return nil, fmt.Errorf("protocol: unknown binary message kind %d", kind)
}

func readFloats(b []byte, count int) []float64 {
	if count == 0 {
		return nil
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Write frames and writes one message in JSON form — the encoding every
// protocol revision accepts.
func Write(w io.Writer, m *Message) error {
	return WriteVersion(w, m, 0)
}

// WriteVersion frames and writes one message under a negotiated protocol
// version: bulk messages (Broadcast, Upload) go out as binary bodies
// when the peer negotiated version >= 3, everything else (and every
// message to an older peer) as JSON. Header and body leave in one Write.
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
	frame, err := appendFrame(nil, m, 0, 1)
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

// AppendFrame appends the complete frame WriteVersion would write —
// header, then body — to dst and returns the extended slice. A
// connection that keeps dst between sends frames its steady-state
// (binary) traffic without allocating.
func AppendFrame(dst []byte, m *Message, version int) ([]byte, error) {
	return appendFrame(dst, m, version, 0)
}

// appendFrame is AppendFrame with crcFlip XORed into the checksum (0 for
// an honest frame).
func appendFrame(dst []byte, m *Message, version int, crcFlip uint32) ([]byte, error) {
	start := len(dst)
	if err := m.Validate(); err != nil {
		return dst, err
	}
	bin := binaryEligible(m, version)
	if bin {
		dst = slices.Grow(dst, headerLen+binaryBodyLen(m))
	}
	dst = append(dst, make([]byte, headerLen)...) // filled in below
	if bin {
		dst = appendBinary(dst, m)
	} else {
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

// Read reads and validates one framed message, accepting every body
// encoding the current protocol revision knows. A checksum mismatch
// returns an error wrapping ErrCorruptFrame with the frame fully
// consumed, so the caller may continue reading the stream.
func Read(r io.Reader) (*Message, error) {
	return ReadVersion(r, Version)
}

// ReadVersion is Read restricted to the body encodings of the given
// protocol version: a v2 reader handed a v3 binary frame returns a
// frame-local error (the frame is fully consumed, the stream stays in
// sync) instead of attempting to parse it.
func ReadVersion(r io.Reader, version int) (*Message, error) {
	var buf []byte
	return readFrame(r, version, &buf)
}

// ReadBuffered is Read through a caller-owned frame buffer: header and
// body are read into *buf, grown to the largest frame seen and left
// there for the next call, so a connection's steady-state reads allocate
// only the message they return. The message never aliases the buffer
// (both decoders copy what they keep), so a caller may drop or shrink
// *buf between calls to bound what it retains.
func ReadBuffered(r io.Reader, buf *[]byte) (*Message, error) {
	return readFrame(r, Version, buf)
}

func readFrame(r io.Reader, version int, buf *[]byte) (*Message, error) {
	if cap(*buf) < headerLen {
		*buf = make([]byte, headerLen, 512)
	}
	header := (*buf)[:headerLen]
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	size := binary.BigEndian.Uint32(header[:4])
	sum := binary.BigEndian.Uint32(header[4:])
	if size > MaxMessageSize {
		return nil, fmt.Errorf("protocol: incoming frame of %d bytes exceeds limit", size)
	}
	if int(size) > cap(*buf) {
		*buf = make([]byte, size)
	}
	body := (*buf)[:size]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("protocol: read body: %w", err)
	}
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: %d-byte frame, checksum %08x want %08x", ErrCorruptFrame, size, got, sum)
	}
	if len(body) > 0 && body[0] == binaryMagic {
		if version < 3 {
			return nil, fmt.Errorf("protocol: binary frame not supported at negotiated version %d", version)
		}
		m, err := parseBinary(body)
		if err != nil {
			return nil, err
		}
		if err := m.Validate(); err != nil {
			return nil, err
		}
		return m, nil
	}
	var m Message
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("protocol: unmarshal: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
