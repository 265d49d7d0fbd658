package protocol

import (
	"bytes"
	"reflect"
	"testing"
)

// TestAdmissionRoundTrip: admission answers are plain JSON frames and
// survive the codec in both queue and reject shapes.
func TestAdmissionRoundTrip(t *testing.T) {
	for _, want := range []*Message{
		{Admission: &Admission{Queued: true, Reason: "fleet at connection budget"}},
		{Admission: &Admission{Reason: "unknown session", Retry: false}},
		{Admission: &Admission{Reason: "budget exhausted", Retry: true}},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, want); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip = %+v, want %+v", got.Admission, want.Admission)
		}
	}
}

// TestHelloSessionIDWireCompat: the session ID rides Hello as an
// optional key and survives the codec. (That a hello without one
// serializes no such key is part of the golden-bytes pin in
// TestRevision7WireBytes.)
func TestHelloSessionIDWireCompat(t *testing.T) {
	var buf bytes.Buffer
	routed := &Message{Hello: &Hello{Version: Version, VehicleID: 2, SessionID: "s1"}}
	if err := Write(&buf, routed); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hello.SessionID != "s1" {
		t.Fatalf("session ID = %q, want s1", got.Hello.SessionID)
	}
}
