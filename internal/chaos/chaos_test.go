package chaos

import (
	"errors"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

func upload(round, id int) *protocol.Message {
	return &protocol.Message{Upload: &protocol.Upload{
		Round: round, VehicleID: id, Values: []float64{1},
	}}
}

func bcast(round int) *protocol.Message {
	return &protocol.Message{Broadcast: &protocol.Broadcast{Round: round, Params: []float64{0}}}
}

func mustSpec(t *testing.T, s string) *Spec {
	t.Helper()
	spec, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestDropRule pins that a p=1 drop rule silently discards matching
// messages while unmatched kinds pass through untouched.
func TestDropRule(t *testing.T) {
	a, b := transport.Pipe()
	defer b.Close()
	in := New(mustSpec(t, "drop.upload=1"), Options{})
	c := in.Wrap(0, a)
	defer c.Close()
	if err := c.Send(upload(1, 0)); err != nil {
		t.Fatalf("drop surfaced an error: %v", err)
	}
	if err := c.Send(bcast(1)); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Broadcast == nil {
		t.Fatalf("dropped upload leaked through: %+v", got)
	}
}

// TestCorruptRule pins the full corruption path: the wrapped pipe's peer
// sees protocol.ErrCorruptFrame, then a clean stream.
func TestCorruptRule(t *testing.T) {
	a, b := transport.Pipe()
	defer b.Close()
	in := New(mustSpec(t, "corrupt.upload=1:max=1"), Options{})
	c := in.Wrap(2, a)
	defer c.Close()
	if err := c.Send(upload(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(upload(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); !errors.Is(err, protocol.ErrCorruptFrame) {
		t.Fatalf("err = %v, want ErrCorruptFrame", err)
	}
	got, err := b.Recv()
	if err != nil || got.Upload == nil {
		t.Fatalf("stream broken after corrupt frame: %+v, %v", got, err)
	}
}

// plainConn strips the Faulter face so the fallback path is reachable.
type plainConn struct{ inner transport.Conn }

func (p plainConn) Send(m *protocol.Message) error   { return p.inner.Send(m) }
func (p plainConn) Recv() (*protocol.Message, error) { return p.inner.Recv() }
func (p plainConn) Close() error                     { return p.inner.Close() }

// TestCorruptFallsBackToDrop: on a fabric without Faulter the corrupt
// fault degrades to a drop instead of failing.
func TestCorruptFallsBackToDrop(t *testing.T) {
	a, b := transport.Pipe()
	defer b.Close()
	in := New(mustSpec(t, "corrupt=1:max=1"), Options{})
	c := in.Wrap(0, plainConn{inner: a})
	defer c.Close()
	if err := c.Send(upload(1, 0)); err != nil {
		t.Fatalf("fallback drop surfaced an error: %v", err)
	}
	if err := c.Send(bcast(1)); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil || got.Broadcast == nil {
		t.Fatalf("got %+v, %v", got, err)
	}
}

// TestDelayRule pins that delays go through the injected Sleeper (tests
// never sleep) and the message still arrives.
func TestDelayRule(t *testing.T) {
	a, b := transport.Pipe()
	defer b.Close()
	sleeper := &obs.ManualSleeper{}
	in := New(mustSpec(t, "delay=1:3ms:max=2"), Options{Sleeper: sleeper})
	c := in.Wrap(1, a)
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Send(upload(1, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	slept := sleeper.Slept()
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2 (max=2): %v", len(slept), slept)
	}
	for _, d := range slept {
		if d != 3*time.Millisecond {
			t.Errorf("slept %v, want 3ms", d)
		}
	}
}

// TestCrashBeforeUpload: the conn hard-closes instead of delivering the
// round's upload, and the same injector does not re-crash the rewrapped
// (reconnected) peer — that is what makes restart-and-rejoin converge.
func TestCrashBeforeUpload(t *testing.T) {
	a, b := transport.Pipe()
	in := New(mustSpec(t, "crash@3=before-upload:2"), Options{})
	c := in.Wrap(3, a)
	if err := c.Send(upload(1, 3)); err != nil {
		t.Fatalf("round 1 upload: %v", err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(upload(2, 3)); err == nil {
		t.Fatal("crash before upload delivered without error")
	}
	if _, err := b.Recv(); err == nil {
		t.Fatal("peer still readable after crash close")
	}
	b.Close()

	// Reconnect: fresh pipe, same peer index, same injector.
	a2, b2 := transport.Pipe()
	defer b2.Close()
	c2 := in.Wrap(3, a2)
	defer c2.Close()
	if err := c2.Send(upload(2, 3)); err != nil {
		t.Fatalf("re-sent upload crashed again: %v", err)
	}
	got, err := b2.Recv()
	if err != nil || got.Upload == nil || got.Upload.Round != 2 {
		t.Fatalf("got %+v, %v", got, err)
	}
}

// TestCrashAfterUpload: the upload is delivered, then the conn closes.
func TestCrashAfterUpload(t *testing.T) {
	a, b := transport.Pipe()
	defer b.Close()
	in := New(mustSpec(t, "crash@0=after-upload:1"), Options{})
	c := in.Wrap(0, a)
	if err := c.Send(upload(1, 0)); err != nil {
		t.Fatalf("after-upload crash should deliver first: %v", err)
	}
	got, err := b.Recv()
	if err != nil || got.Upload == nil {
		t.Fatalf("got %+v, %v", got, err)
	}
	if err := c.Send(bcast(1)); err == nil {
		t.Fatal("send after crash close accepted")
	}
}

// TestCrashPeerScope: a crash scoped to peer 5 leaves other peers alone.
func TestCrashPeerScope(t *testing.T) {
	a, b := transport.Pipe()
	defer b.Close()
	in := New(mustSpec(t, "crash@5=before-upload:1"), Options{})
	c := in.Wrap(4, a)
	defer c.Close()
	if err := c.Send(upload(1, 4)); err != nil {
		t.Fatalf("peer 4 hit a peer-5 crash: %v", err)
	}
}

// faultPattern drives n uploads through a wrapped sink and returns which
// were delivered — the schedule fingerprint.
func faultPattern(t *testing.T, in *Injector, peer, n int) []bool {
	t.Helper()
	a, b := transport.Pipe()
	defer b.Close()
	c := in.Wrap(peer, a)
	defer c.Close()
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		if err := c.Send(upload(1, peer)); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(bcast(1)); err != nil { // sync marker
			t.Fatal(err)
		}
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Upload != nil {
			out[i] = true
			if m, err = b.Recv(); err != nil || m.Broadcast == nil {
				t.Fatalf("lost sync marker: %+v, %v", m, err)
			}
		}
	}
	return out
}

// TestScheduleDeterministic pins the layer's core contract: the fault
// pattern is a pure function of (seed, spec, peer, message sequence).
func TestScheduleDeterministic(t *testing.T) {
	const spec = "seed=11;drop.upload=0.4"
	p1 := faultPattern(t, New(mustSpec(t, spec), Options{}), 2, 64)
	p2 := faultPattern(t, New(mustSpec(t, spec), Options{}), 2, 64)
	drops := 0
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed diverged at message %d", i)
		}
		if !p1[i] {
			drops++
		}
	}
	if drops == 0 || drops == 64 {
		t.Fatalf("degenerate schedule: %d/64 drops", drops)
	}
	// Different peers (and different seeds) draw independent streams.
	other := faultPattern(t, New(mustSpec(t, spec), Options{}), 3, 64)
	same := 0
	for i := range p1 {
		if p1[i] == other[i] {
			same++
		}
	}
	if same == 64 {
		t.Error("peers 2 and 3 share an identical schedule")
	}
}

// TestPeerStreamsNotShifted: peers' streams are not shifted copies of one
// another. Seeded seed + (p+1)·γ, peer 1's first draw was peer 0's
// second, and 20 peers × 5 draws — a 20-vehicle session's five uploads —
// held 24 distinct draws, not 100.
func TestPeerStreamsNotShifted(t *testing.T) {
	const seed, peers, draws = 11, 20, 5
	stream := func(p int) *field.SeededSource { return field.NewSeededSource(peerSeed(seed, p)) }
	p0, p1 := stream(0), stream(1)
	p0.Uint64()
	if p0.Uint64() == p1.Uint64() {
		t.Error("peer 1's first draw is peer 0's second")
	}
	seen := map[uint64]bool{}
	for p := 0; p < peers; p++ {
		src := stream(p)
		for k := 0; k < draws; k++ {
			seen[src.Uint64()] = true
		}
	}
	if len(seen) != peers*draws {
		t.Errorf("%d peers x %d draws hold %d distinct draws, want %d", peers, draws, len(seen), peers*draws)
	}
}

// TestObsCounters pins the chaos.* counter totals for a fixed schedule.
func TestObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	o := obs.New(reg, nil, nil)
	sleeper := &obs.ManualSleeper{}
	in := New(mustSpec(t, "drop.upload=1:max=2;delay.broadcast=1:1ms:max=1;crash@0=after-upload:3"), Options{Obs: o, Sleeper: sleeper})
	a, b := transport.Pipe()
	defer b.Close()
	c := in.Wrap(0, a)
	for i := 0; i < 3; i++ {
		if err := c.Send(upload(1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Send(bcast(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(upload(3, 0)); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"chaos.drops": 2, "chaos.delays": 1, "chaos.crashes": 1, "chaos.corrupts": 0,
	}
	for name, w := range want {
		if got := reg.Snapshot().Counters[name]; got != w {
			t.Errorf("%s = %d, want %d", name, got, w)
		}
	}
}

// TestNilSpecFaultFree: a nil spec wraps into a transparent conn.
func TestNilSpecFaultFree(t *testing.T) {
	a, b := transport.Pipe()
	defer b.Close()
	in := New(nil, Options{})
	c := in.Wrap(0, a)
	defer c.Close()
	if err := c.Send(upload(1, 0)); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Recv(); err != nil || got.Upload == nil {
		t.Fatalf("got %+v, %v", got, err)
	}
}
