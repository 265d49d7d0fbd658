package node

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/fl"
	"repro/internal/protocol"
)

// stepConn is a connection with no peer, for driving the engine one event
// at a time: it records what the engine sends, fails every send once
// broken, and its Recv blocks until Close.
type stepConn struct {
	id     int      // the vehicle it carries
	sent   []string // "setup", "broadcast 2", "finished"
	broken bool
	shut   bool // Close was called
	closed chan struct{}
	once   sync.Once

	// For the schedule sweep: what the vehicle sent that the engine has
	// not read yet, in order; how many messages the vehicle has answered;
	// and whether its end of stream is queued.
	pending []event
	read    int
	eof     bool
}

func (c *stepConn) Send(m *protocol.Message) error {
	if c.broken {
		return errors.New("link lost")
	}
	kind := m.Kind()
	if m.Broadcast != nil {
		kind = fmt.Sprintf("broadcast %d", m.Broadcast.Round)
	}
	c.sent = append(c.sent, kind)
	return nil
}

func (c *stepConn) Recv() (*protocol.Message, error) {
	<-c.closed
	return nil, io.EOF
}

func (c *stepConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	c.shut = true
	return nil
}

// last is the last message the engine sent on c ("" for none).
func (c *stepConn) last() string {
	if len(c.sent) == 0 {
		return ""
	}
	return c.sent[len(c.sent)-1]
}

// stepRig drives one session's engine by hand, with no fabric: handshake
// over stepConns, then broadcast, step and close in the order a test
// chooses. Every vehicle computes its upload for every round from the
// round's broadcast, as RunVehicle does and as fl.System's vehicles do.
type stepRig struct {
	t       *testing.T
	s       *session
	e       *engine
	conns   []*stepConn // each vehicle's current connection
	all     []*stepConn // every connection made, closed by stop
	vs      []*vehicleSession
	uploads [][]float64    // this round's upload per vehicle
	back    chan []float64 // where the engine hands upload buffers back
}

// newStepRig seats one stepConn per vehicle of s under the wait budget.
func newStepRig(t *testing.T, s *session, budget int) *stepRig {
	t.Helper()
	v := len(s.clients)
	r := &stepRig{t: t, s: s, conns: make([]*stepConn, v), vs: make([]*vehicleSession, v),
		uploads: make([][]float64, v), back: make(chan []float64, 1<<12)}
	s.server.cfg.WaitBudget = budget
	hellos := make([]hello, v)
	for id := range hellos {
		r.conns[id] = r.conn(id)
		hellos[id] = hello{conn: r.conns[id], msg: &protocol.Hello{Version: protocol.Version, VehicleID: id}}
	}
	e, err := s.server.handshake(hellos)
	if err != nil {
		t.Fatal(err)
	}
	r.e = e
	for id, cc := range s.clients {
		vs, err := newVehicleSession(cc, nil)
		if err == nil {
			err = vs.install(&e.setup)
		}
		if err != nil {
			t.Fatal(err)
		}
		r.vs[id] = vs
	}
	return r
}

func (r *stepRig) conn(id int) *stepConn {
	c := &stepConn{id: id, closed: make(chan struct{})}
	r.all = append(r.all, c)
	return c
}

// stop ends the session: its receivers return and its timer stops.
func (r *stepRig) stop() {
	for _, c := range r.all {
		_ = c.Close()
	}
	close(r.s.server.done)
	r.e.deadline.Stop()
}

// open broadcasts round n and computes every vehicle's upload for it.
func (r *stepRig) open(n int) {
	r.t.Helper()
	r.e.round = n
	if err := r.e.broadcast(); err != nil {
		r.t.Fatal(err)
	}
	for id, vs := range r.vs {
		err := vs.local.SetParams(r.e.params)
		if err == nil {
			err = vs.share.BeginRound(vs.local)
		}
		if err == nil {
			err = vs.local.Train(vs.cfg.Data, r.e.setup.LocalRate, r.e.setup.LocalEpochs, vs.rng)
		}
		var values []float64
		if err == nil {
			values, err = vs.share.Upload(vs.local)
		}
		if err != nil {
			r.t.Fatal(err)
		}
		r.uploads[id] = r.uploads[id][:0]
		for _, x := range values {
			if vs.cfg.Corrupt != nil {
				x = vs.cfg.Corrupt.Corrupt(id, x)
			}
			r.uploads[id] = append(r.uploads[id], x)
		}
	}
}

// close closes the open round and returns its record.
func (r *stepRig) close() RoundRecord {
	r.t.Helper()
	if err := r.e.close(); err != nil {
		r.t.Fatal(err)
	}
	for len(r.back) > 0 {
		<-r.back
	}
	return r.s.server.records[r.e.round-1]
}

// upload is vehicle id's upload for round as its current connection's
// receiver delivers it: a copy of the open round's, which a later open
// leaves as it is.
func (r *stepRig) upload(id, round int) event {
	return event{result: result{vehicleID: id, conn: r.conns[id], round: round,
		size: len(r.uploads[id]), values: slices.Clone(r.uploads[id]), back: r.back}}
}

// fault is a receive error (protocol.ErrCorruptFrame for a corrupt frame)
// on vehicle id's current connection.
func (r *stepRig) fault(id int, err error) event {
	return event{result: result{vehicleID: id, conn: r.conns[id], err: err}}
}

// rejoin is vehicle id's hello on a new connection, which becomes its
// current one.
func (r *stepRig) rejoin(id int) event {
	r.conns[id] = r.conn(id)
	return event{rejoin: hello{conn: r.conns[id], msg: &protocol.Hello{Version: protocol.Version, VehicleID: id}}}
}

// steps hands the engine each event in turn and requires that only the
// last one closes the round.
func (r *stepRig) steps(evs ...event) {
	r.t.Helper()
	for i, ev := range evs {
		if closed := r.e.step(ev); closed != (i == len(evs)-1) {
			r.t.Fatalf("round %d event %d of %d: closed = %v", r.e.round, i+1, len(evs), closed)
		}
	}
}

// uploadsFrom returns the round's uploads from the given vehicles.
func (r *stepRig) uploadsFrom(round int, ids ...int) []event {
	evs := make([]event, len(ids))
	for i, id := range ids {
		evs[i] = r.upload(id, round)
	}
	return evs
}

// span lists the IDs lo..hi-1.
func span(lo, hi int) []int {
	var ids []int
	for id := lo; id < hi; id++ {
		ids = append(ids, id)
	}
	return ids
}

// wantVerdicts requires rec to hold want for every vehicle, except the
// vehicles named in other.
func wantVerdicts(t *testing.T, rec RoundRecord, want fl.Verdict, other map[int]fl.Verdict) {
	t.Helper()
	for id, v := range rec.Verdicts {
		w, ok := other[id]
		if !ok {
			w = want
		}
		if v != w {
			t.Errorf("round %d: vehicle %d verdict %v, want %v", rec.Round, id, v, w)
		}
	}
}

// TestStepBudgetClose: at WaitBudget 2 (K = 8, so the target is 10) the
// tenth upload closes the round by budget, and the two vehicles still
// owing are left behind, Late in the record and listed by Status.
func TestStepBudgetClose(t *testing.T) {
	r := newStepRig(t, buildSession(t, engineVehicles, 1, 0), 2)
	defer r.stop()
	r.open(1)
	r.steps(r.uploadsFrom(1, span(0, 10)...)...)
	if st := r.s.server.Status(); !slices.Equal(st.Behind, []int{10, 11}) || st.Outstanding != 2 {
		t.Errorf("status behind %v, outstanding %d; want [10 11], 2", st.Behind, st.Outstanding)
	}
	rec := r.close()
	if rec.ClosedBy != "budget" || rec.Arrived != 10 || rec.Degraded {
		t.Errorf("record %+v: want closed by budget on 10 uploads", rec)
	}
	wantVerdicts(t, rec, fl.Admitted, map[int]fl.Verdict{10: fl.Late, 11: fl.Late})
}

// TestStepWindowWithholding: two vehicles that never upload are left
// behind by the budget closes of rounds 1 and 2; round 3's broadcast is
// withheld from them, more than pipelineWindow rounds stale, until a
// stale upload from one of them proves it alive and releases it.
func TestStepWindowWithholding(t *testing.T) {
	r := newStepRig(t, buildSession(t, engineVehicles, 3, 0), 2)
	defer r.stop()
	for round := 1; round <= 2; round++ {
		r.open(round)
		if got := r.conns[10].last(); got != fmt.Sprintf("broadcast %d", round) {
			t.Fatalf("round %d: vehicle 10 last sent %q", round, got)
		}
		r.steps(r.uploadsFrom(round, span(0, 10)...)...)
		r.close()
	}
	r.open(3)
	for _, id := range []int{10, 11} {
		if got := r.conns[id].last(); got != "broadcast 2" || r.e.veh[id].verdict != fl.Withheld {
			t.Fatalf("round 3: vehicle %d last sent %q, verdict %v; want its broadcast withheld", id, got, r.e.veh[id].verdict)
		}
	}
	r.steps(append([]event{r.upload(10, 1)}, r.uploadsFrom(3, span(0, 10)...)...)...)
	if got := r.conns[10].last(); got != "broadcast 3" {
		t.Errorf("vehicle 10's withheld broadcast not released: last sent %q", got)
	}
	rec := r.close()
	if rec.ClosedBy != "budget" {
		t.Errorf("round 3 closed by %q, want budget (vehicle 10 owes it once released)", rec.ClosedBy)
	}
	wantVerdicts(t, rec, fl.Admitted, map[int]fl.Verdict{10: fl.Late, 11: fl.Withheld})
}

// TestStepRetransmitCap: a vehicle whose upload frame arrives corrupt
// maxRetransmits+1 times is prompted maxRetransmits times, each prompt a
// re-broadcast; every corrupt frame counts.
func TestStepRetransmitCap(t *testing.T) {
	r := newStepRig(t, buildSession(t, engineVehicles, 1, 0), 0)
	defer r.stop()
	r.open(1)
	var evs []event
	for i := 0; i <= maxRetransmits; i++ {
		evs = append(evs, r.fault(0, protocol.ErrCorruptFrame))
	}
	r.steps(append(evs, r.uploadsFrom(1, span(0, engineVehicles)...)...)...)
	if got := slices.Clone(r.conns[0].sent); !slices.Equal(got, []string{"setup", "broadcast 1", "broadcast 1", "broadcast 1", "broadcast 1"}) {
		t.Errorf("vehicle 0 was sent %v, want its setup and 1+%d broadcasts", got, maxRetransmits)
	}
	rec := r.close()
	if rec.CorruptFrames != maxRetransmits+1 || rec.Retransmits != maxRetransmits || rec.ClosedBy != "all" {
		t.Errorf("record %+v: want %d corrupt frames, %d retransmits, closed by all", rec, maxRetransmits+1, maxRetransmits)
	}
	wantVerdicts(t, rec, fl.Admitted, nil)
}

// TestStepRefusedUpload: an upload of the wrong length and one for a
// round not yet broadcast are refused: each costs its vehicle the
// connection and ends what it owes the round, so the round closes on the
// others without waiting for the deadline.
func TestStepRefusedUpload(t *testing.T) {
	r := newStepRig(t, buildSession(t, engineVehicles, 1, 0), 0)
	defer r.stop()
	r.open(1)
	short := r.upload(3, 1)
	short.size, short.values = short.size-1, nil // the receiver copies no upload of the wrong length
	r.steps(append([]event{short, r.upload(4, 2)}, r.uploadsFrom(1, slices.Concat(span(0, 3), span(5, engineVehicles))...)...)...)
	rec := r.close()
	if !r.conns[3].shut || !r.conns[4].shut || rec.RecvErrors != 2 || rec.ClosedBy != "all" {
		t.Errorf("record %+v, connections closed %v %v: want both refused, 2 receive errors, closed by all",
			rec, r.conns[3].shut, r.conns[4].shut)
	}
	wantVerdicts(t, rec, fl.Admitted, map[int]fl.Verdict{3: fl.Disconnected, 4: fl.Disconnected})
}

// TestStepCrashRule pins the rule a crash round follows: a vehicle whose
// connection fails after the broadcast — a receive error, or the
// broadcast send itself — still owes the round, so the round stays open
// once every other upload is in. A rejoin before the close inherits the
// debt and ends Admitted; with no rejoin the deadline closes the round
// and the vehicle is Disconnected.
func TestStepCrashRule(t *testing.T) {
	const crashed = 5
	for _, lost := range []string{"receive error", "failed broadcast"} {
		for _, rejoins := range []bool{true, false} {
			name := fmt.Sprintf("%s, rejoin %v", lost, rejoins)
			r := newStepRig(t, buildSession(t, engineVehicles, 1, 0), 0)
			if lost == "failed broadcast" {
				r.conns[crashed].broken = true
			}
			r.open(1)
			if lost == "receive error" {
				if r.e.step(r.fault(crashed, io.EOF)) {
					t.Fatalf("%s: the receive error closed the round", name)
				}
			}
			for _, ev := range r.uploadsFrom(1, slices.Concat(span(0, crashed), span(crashed+1, engineVehicles))...) {
				if r.e.step(ev) {
					t.Fatalf("%s: the round closed while vehicle %d owes it", name, crashed)
				}
			}
			want, closedBy := fl.Disconnected, "timeout"
			if rejoins {
				r.steps(r.rejoin(crashed), r.upload(crashed, 1))
				if got := r.conns[crashed].sent; !slices.Equal(got, []string{"setup", "broadcast 1"}) {
					t.Errorf("%s: rejoined connection was sent %v", name, got)
				}
				want, closedBy = fl.Admitted, "all"
			} else {
				r.steps(event{timeout: true})
			}
			rec := r.close()
			if rec.ClosedBy != closedBy || rec.Degraded {
				t.Errorf("%s: record %+v, want closed by %s", name, rec, closedBy)
			}
			wantVerdicts(t, rec, fl.Admitted, map[int]fl.Verdict{crashed: want})
			r.stop()
		}
	}
}

// TestStepWindowSchedules pins both schedules of a three-round session in
// which vehicles 10 and 11 always upload a round late, at WaitBudget 2:
// what closes round 3 depends only on whether the engine saw their stale
// round-1 uploads in round 2. Seen, round 3's broadcast goes to them and
// round 3 closes by budget; unseen, it is withheld (three rounds stale)
// and round 3 closes once the others are in, with nobody owing.
func TestStepWindowSchedules(t *testing.T) {
	for _, seen := range []bool{true, false} {
		r := newStepRig(t, buildSession(t, engineVehicles, 3, 0), 2)
		var closedBy []string
		for round := 1; round <= 3; round++ {
			r.open(round)
			evs := r.uploadsFrom(round, span(0, 10)...)
			if seen && round > 1 {
				stale := r.uploadsFrom(round-1, 10, 11)
				evs = append(stale, evs...)
			}
			r.steps(evs...)
			closedBy = append(closedBy, r.close().ClosedBy)
		}
		want, late := []string{"budget", "budget", "budget"}, fl.Late
		if !seen {
			want, late = []string{"budget", "budget", "all"}, fl.Withheld
		}
		if !slices.Equal(closedBy, want) {
			t.Errorf("stale uploads seen %v: closed by %v, want %v", seen, closedBy, want)
		}
		wantVerdicts(t, r.s.server.records[2], fl.Admitted, map[int]fl.Verdict{10: late, 11: late})
		r.stop()
	}
}

// The behaviours a swept vehicle draws for a round.
const (
	actPunctual   = iota
	actCorrupt    // its upload frame arrives corrupt 1..maxRetransmits+1 times
	actCrash      // its connection fails before the upload
	actCrashAfter // its connection fails after the upload
	actLate       // its upload goes out with the next broadcast it gets
	actSilent     // it never uploads
	actRefused    // it sends an upload one value short
	numActs
)

// actWeights are each behaviour's chances in 20: most vehicles are
// punctual.
var actWeights = [numActs]int{11, 2, 2, 1, 2, 1, 1}

// sweepAgent is one vehicle of a swept schedule.
type sweepAgent struct {
	round    int // the round act was drawn for
	act      int
	corrupts int // corrupt frames still to send this round
	held     int // the round of a late upload it holds (0 none)
}

// sweep runs one session of base's shape through step under a schedule
// drawn from seed: a random wait budget; vehicles that upload on time,
// corrupt their frames, crash before or after uploading (rejoining or
// not), run a round late, stay silent or send a refused upload; each
// connection's frames in order (a rejoin's hello first on its new one),
// but the connections interleaved at random; and the deadline at a random
// moment, or when nothing is left to read. It requires one verdict per
// vehicle per round and replays each round on a second server's model,
// scheme and distiller: scheme.Aggregate over the uploads the round's
// record admits, then fl.CloseRound, or nothing for a degraded round.
// The replay must flag the vehicles the record flags and end on the
// session's FinalParams, and each record's arrivals must be its admitted
// verdicts.
func sweep(t *testing.T, base *session, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	srv, err := NewServer(base.server.cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewServer(base.server.cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &session{server: srv, clients: base.clients}
	v, k := len(s.clients), srv.scheme.RecoverThreshold()
	name := fmt.Sprintf("V=%d seed %d", v, seed)
	r := newStepRig(t, s, rng.Intn(v-k+1))
	defer r.stop()
	agents := make([]sweepAgent, v)
	push := func(c *stepConn, ev event) { c.pending = append(c.pending, ev) }
	rejoin := func(id int) {
		ev := r.rejoin(id)
		push(r.conns[id], ev)
	}
	// react answers every message the engine sent since it last ran, and
	// queues the end of stream of every connection the engine closed.
	react := func() {
		for id := range agents {
			a, c := &agents[id], r.conns[id]
			for ; c.read < len(c.sent) && !c.broken; c.read++ {
				var round int
				if _, err := fmt.Sscanf(c.sent[c.read], "broadcast %d", &round); err != nil {
					continue
				}
				if a.held > 0 {
					push(c, r.upload(id, a.held))
					a.held = 0
				}
				if round != a.round {
					a.round, a.corrupts = round, 1+rng.Intn(maxRetransmits+1)
					n := rng.Intn(20)
					for a.act = 0; n >= actWeights[a.act]; a.act++ {
						n -= actWeights[a.act]
					}
				}
				switch a.act {
				case actPunctual:
					push(c, r.upload(id, round))
				case actCorrupt:
					if a.corrupts == 0 {
						push(c, r.upload(id, round))
						break
					}
					a.corrupts--
					push(c, r.fault(id, protocol.ErrCorruptFrame))
				case actCrash, actCrashAfter:
					if a.act == actCrashAfter {
						push(c, r.upload(id, round))
					}
					push(c, r.fault(id, io.EOF))
					c.broken, c.eof = true, true // it reads and sends nothing more
					a.act = actPunctual          // a rejoined vehicle resends its upload
					if rng.Intn(3) > 0 {
						rejoin(id)
					}
				case actLate:
					a.held = round
				case actRefused:
					short := r.upload(id, round)
					short.size, short.values = short.size-1, nil
					push(c, short)
					a.act = actSilent
				}
			}
		}
		for _, c := range r.all {
			if c.shut && !c.eof {
				c.eof = true
				push(c, event{result: result{vehicleID: c.id, conn: c, err: io.EOF}})
			}
		}
	}
	for round := 1; round <= srv.cfg.Rounds; round++ {
		r.open(round)
		for id, c := range r.conns {
			if (c.broken || c.shut) && rng.Intn(2) == 0 {
				rejoin(id)
			}
		}
		react()
		for closed := false; !closed; react() {
			var ready []*stepConn
			for _, c := range r.all {
				if len(c.pending) > 0 {
					ready = append(ready, c)
				}
			}
			if len(ready) == 0 || rng.Intn(64) == 0 {
				closed = r.e.step(event{timeout: true})
				continue
			}
			c := ready[rng.Intn(len(ready))]
			ev := c.pending[0]
			c.pending = c.pending[1:]
			closed = r.e.step(ev)
		}
		rec := r.close()
		checkVerdicts(t, name, rec, v)
		var tally fl.Tally
		tally.Add(rec.Verdicts)
		if in := tally[fl.Admitted] + tally[fl.Flagged]; in != rec.Arrived || rec.Degraded != (in < k) {
			t.Errorf("%s round %d: %d uploads admitted, %d arrived, degraded %v at K = %d", name, round, in, rec.Arrived, rec.Degraded, k)
		}
		if !rec.Degraded {
			replay(t, name, oracle, rec, r.uploads)
		}
	}
	if rep := r.e.finish(); rep.Rounds != srv.cfg.Rounds || !sameBits(rep.FinalParams, oracle.shared.Params()) {
		t.Errorf("%s: %d rounds, FinalParams equal to the replay's: %v", name, rep.Rounds, sameBits(rep.FinalParams, oracle.shared.Params()))
	}
}

// replay closes one round on o's model: scheme.Aggregate over the uploads
// rec admits (Admitted or Flagged), then fl.CloseRound, and requires the
// scheme to flag exactly the vehicles rec flags.
func replay(t *testing.T, name string, o *Server, rec RoundRecord, uploads [][]float64) {
	t.Helper()
	rows := make([][]float64, len(uploads))
	for id, vd := range rec.Verdicts {
		if vd == fl.Admitted || vd == fl.Flagged {
			rows[id] = uploads[id]
		}
	}
	err := o.scheme.BeginRound(o.shared)
	var targets []float64
	if err == nil {
		targets, err = o.scheme.Aggregate(rows)
	}
	if err == nil {
		err = fl.CloseRound(o.distiller, o.shared, targets)
	}
	if err != nil {
		t.Fatalf("%s round %d: replay: %v", name, rec.Round, err)
	}
	for id, vd := range rec.Verdicts {
		if (vd == fl.Flagged) != (o.scheme.DetectedMalicious[id] > 0) {
			t.Errorf("%s round %d: vehicle %d verdict %v, replay flagged it %d times", name, rec.Round, id, vd, o.scheme.DetectedMalicious[id])
		}
	}
}

// TestStepScheduleSweep drives 200 seeded schedules at each of V = 8
// (four batches, K = 4, all honest) and V = 12 (K = 8, one liar) through
// step (see sweep).
func TestStepScheduleSweep(t *testing.T) {
	const seeds, rounds = 200, 3
	small := buildSession(t, 8, rounds, 0)
	small.server.cfg.Scheme.NumBatches = 4
	for _, base := range []*session{small, buildSession(t, engineVehicles, rounds, 0.1)} {
		for seed := int64(1); seed <= seeds; seed++ {
			sweep(t, base, seed)
		}
	}
}
