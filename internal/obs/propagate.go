package obs

import "strconv"

// Trace-context propagation.
//
// A distributed session (lcofl serve + N vehicle processes) writes one
// JSONL trace per process. To merge them into a single causal timeline
// (cmd/tracereport -merge) every process must agree on WHICH trace a
// span belongs to and WHO its parent is — without coordination and
// without randomness, because traces must stay byte-identical under
// ManualClock. Both properties fall out of deriving every ID from data
// the processes already share:
//
//   - the session trace ID is a splitmix64 hash of the scheme seed, so
//     the fusion centre and every vehicle compute the same value from
//     the Setup message they already exchange;
//   - span IDs are splitmix64 folds of (trace, span kind, round,
//     vehicle, ...), so the same logical operation has the same ID in
//     every process and across reruns.
//
// IDs travel on the wire as canonical 16-digit lowercase hex strings in
// JSON frames and as raw little-endian u64 in the binary bulk frames (see
// internal/protocol); zero is "no context" and is never emitted.

// SpanContext names one span within a session trace. The zero value
// means "no context" and is what disabled paths carry.
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether both components are set.
func (c SpanContext) Valid() bool { return c.Trace != 0 && c.Span != 0 }

// mix64 is the splitmix64 finaliser: a fast, high-quality 64-bit mixing
// permutation (Vigna 2015). Deterministic by construction — exactly what
// ID derivation needs, and unrelated to the field/crypto seeding paths.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// traceSalt separates the trace-ID hash domain from other consumers of
// the session seed (field element sampling, chaos schedules).
const traceSalt = 0x6c636f666c2d7472 // "lcofl-tr"

// TraceIDFromSeed derives the session trace ID from a scheme or session
// seed. Never returns 0, so a derived ID is always Valid as a trace.
func TraceIDFromSeed(seed int64) uint64 {
	id := mix64(uint64(seed) ^ traceSalt)
	if id == 0 {
		return traceSalt
	}
	return id
}

// DeriveSpan folds a span kind and discriminating parts (round, vehicle
// ID, attempt, ...) into the trace ID. Same inputs, same ID — in every
// process. Never returns 0.
func DeriveSpan(trace uint64, kind string, parts ...uint64) uint64 {
	h := trace
	for i := 0; i < len(kind); i++ {
		h = mix64(h ^ uint64(kind[i]))
	}
	for _, p := range parts {
		h = mix64(h ^ p)
	}
	if h == 0 {
		return traceSalt
	}
	return h
}

// FormatID renders an ID in the canonical wire form: 16 lowercase hex
// digits, zero-padded. Zero (no context) renders as "".
func FormatID(id uint64) string {
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

// ParseID is the liberal inverse of FormatID: it accepts any hex string
// that fits in 64 bits and returns 0 (no context) for anything else —
// never an error, because trace context is best-effort metadata and a
// malformed ID must not fail a protocol read.
func ParseID(s string) uint64 {
	if s == "" {
		return 0
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return v
}

// CtxFields builds the trace/span/parent fields attached to an emitted
// event. Zero components are skipped, so call sites can pass whatever
// they have. Callers guard with TraceEnabled before building the slice —
// this helper allocates and must stay off disabled paths.
func CtxFields(c SpanContext, parent uint64) []Field {
	fields := make([]Field, 0, 3)
	if c.Trace != 0 {
		fields = append(fields, F("trace", FormatID(c.Trace)))
	}
	if c.Span != 0 {
		fields = append(fields, F("span", FormatID(c.Span)))
	}
	if parent != 0 {
		fields = append(fields, F("parent", FormatID(parent)))
	}
	return fields
}
