package node

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// engineCase is one cell of the engine-versus-simulation matrix.
type engineCase struct {
	name      string
	malicious float64       // fraction of vehicles lying ConstantLie{5}
	spec      string        // chaos spec ("" = fault-free)
	retry     map[int]bool  // vehicles running under RunVehicleRetry
	timeout   time.Duration // round timeout override (0 = session default)
	deferred  bool          // the last two vehicles always upload a round late, WaitBudget=2
	malformed bool          // malformedVehicle sends every upload one value short
	flood     bool          // floodVehicle floods the wire around every upload (floodConn)
	hostile   bool          // hostileVehicles rewrite every upload (hostileConn)
}

// malformedVehicle is the malformed case's short-uploading vehicle.
const malformedVehicle = 3

// floodVehicle is the flood case's hostile vehicle.
const floodVehicle = 5

// hostileVehicles are the hostile case's vehicles: the first sends NaN as
// every verification half, the second +Inf as its first learning value.
// Both must be flagged, the one located, the other out of range.
var hostileVehicles = []int{2, 9}

// The matrix's session shape: K = 8, so up to two lies are corrected.
const engineVehicles, engineRounds = 12, 3

// chaosCases are the fault cells of the matrix.
var chaosCases = []engineCase{
	// One silently dropped upload: a timeout-closed round with a
	// straggler, recovered next round.
	{name: "drop", spec: "seed=3;drop.upload@3=1:max=1", timeout: time.Second},
	// Injected upload delays (recorded, not slept, so schedules stay
	// deterministic) exercise the arrival-order machinery.
	{name: "delay", spec: "seed=4;delay.upload=0.5:10ms"},
	crashCase,
}

// crashCase: corrupt frames with bounded retransmits plus a
// crash-and-rejoin. Vehicle 4's round-2 upload arrives through the rejoin
// resend, inside round 2, which the crashed vehicle still owes.
var crashCase = engineCase{name: "crash", spec: "seed=9;corrupt.upload=0.3:max=1;crash@4=before-upload:2",
	retry: map[int]bool{4: true}}

// TestEngineMatchesSimulation pins the networked engine to its oracle: a
// round's outcome is CloseRound over the uploads the round admitted, so
// fl.System, run on the same data, seeds and activation and shown only
// the admitted uploads, must end every session on bit-identical
// parameters, admit and flag the same vehicles in every round — fault-free, with liars, under
// chaos faults, with a budget close excluding two late vehicles, with a
// vehicle whose malformed uploads drop it from the session, and with two
// vehicles whose well-formed uploads skip verification or leave [0, 1],
// at every scheme worker count.
func TestEngineMatchesSimulation(t *testing.T) {
	matchSimulation(t, append([]engineCase{
		{name: "honest"},
		{name: "liars", malicious: 0.2},
		{name: "deferred", deferred: true},
		{name: "malformed", malformed: true},
		{name: "hostile", hostile: true},
	}, chaosCases...))
}

// TestPipelineBitIdentical is the chaos axis of TestEngineMatchesSimulation
// on its own: faults the recovery machinery absorbs leave the model on the
// simulation's, with identical recovery counters at every worker count.
func TestPipelineBitIdentical(t *testing.T) {
	matchSimulation(t, chaosCases)
}

// TestCrashRejoinBitIdentical is the crash cell on its own: no
// timeout-closed round, so it is fast enough for CI to repeat a hundred
// times under the race detector — the rate at which the rejoin race this
// cell once lost would show.
func TestCrashRejoinBitIdentical(t *testing.T) {
	matchSimulation(t, []engineCase{crashCase})
}

// matchSimulation runs every case on the engine at GOMAXPROCS 1, 2 and 8
// and requires FinalParams bit-identical to the simulation's, the
// simulation's admitted and flagged sets in every round, and recovery
// counters equal across them.
func matchSimulation(t *testing.T, cases []engineCase) {
	t.Helper()
	for _, tc := range cases {
		admitted := tc.admitted(t)
		var first *Report
		for _, procs := range []int{1, 2, 8} {
			setProcs(t, procs)
			s, rep := tc.run(t)
			if rep.Rounds != engineRounds {
				t.Fatalf("%s procs=%d: rounds = %d", tc.name, procs, rep.Rounds)
			}
			if first == nil {
				first = rep
				if tc.hostile && !slices.Equal(rep.SuspectedMalicious, hostileVehicles) {
					t.Errorf("%s: engine flagged %v, want %v", tc.name, rep.SuspectedMalicious, hostileVehicles)
				}
				params, verdicts := simulate(t, s, admitted, tc.rewrite(s))
				if !sameBits(rep.FinalParams, params) {
					t.Errorf("%s: engine FinalParams diverged from the simulation's", tc.name)
				}
				if flagged := flaggedIn(verdicts); !slices.Equal(rep.SuspectedMalicious, flagged) {
					t.Errorf("%s: engine flagged %v, simulation %v", tc.name, rep.SuspectedMalicious, flagged)
				}
				checkAdmitted(t, tc.name, rep, verdicts)
				continue
			}
			if !sameBits(rep.FinalParams, first.FinalParams) {
				t.Errorf("%s procs=%d: FinalParams differ from procs=1", tc.name, procs)
			}
			if !slices.Equal(rep.SuspectedMalicious, first.SuspectedMalicious) {
				t.Errorf("%s procs=%d: flagged %v, procs=1 %v",
					tc.name, procs, rep.SuspectedMalicious, first.SuspectedMalicious)
			}
			// RecvErrors is compared only for crash-free specs: whether the
			// fusion centre's receiver observes a killed conn's EOF before
			// the rejoin replaces it is a scheduling race
			// (TestChaosRecoveryBitIdentical omits it likewise).
			if tc.retry == nil && rep.RecvErrors != first.RecvErrors {
				t.Errorf("%s procs=%d: recv errors %d, procs=1 %d",
					tc.name, procs, rep.RecvErrors, first.RecvErrors)
			}
			if rep.Stragglers != first.Stragglers ||
				rep.CorruptFrames != first.CorruptFrames ||
				rep.Retransmits != first.Retransmits ||
				rep.Rejoins != first.Rejoins ||
				rep.DegradedRounds != first.DegradedRounds {
				t.Errorf("%s procs=%d: recovery counters diverged:\n%+v\nprocs=1 %+v",
					tc.name, procs, rep, first)
			}
		}
	}
}

// run executes the case's session on the engine (buildSessionObs seeds
// every vehicle as fl.System does).
func (tc engineCase) run(t *testing.T) (*session, *Report) {
	t.Helper()
	if tc.deferred {
		return runDeferredSession(t, engineVehicles, engineRounds, 2, nil)
	}
	s := buildSessionObs(t, engineVehicles, engineRounds, tc.malicious, nil)
	if tc.flood {
		// The future-round upload after round engineRounds-1 is refused
		// as a receive error that closes the hostile vehicle's connection,
		// so the vehicle ends on an error and misses the last round.
		rep := runWrapped(t, s, func(i int, c transport.Conn) transport.Conn {
			if i == floodVehicle {
				return &floodConn{Conn: c}
			}
			return c
		}, floodVehicle)
		if rep.RecvErrors != 1 {
			t.Errorf("%s: recv errors = %d, want 1, the refusal", tc.name, rep.RecvErrors)
		}
		return s, rep
	}
	if tc.hostile {
		rewrite := tc.rewrite(s)
		return s, runWrapped(t, s, func(i int, c transport.Conn) transport.Conn {
			if slices.Contains(hostileVehicles, i) {
				return &hostileConn{Conn: c, id: i, rewrite: rewrite}
			}
			return c
		}, -1)
	}
	if tc.malformed {
		// The short upload is refused as a receive error: the vehicle is
		// dropped, its connection closed, and the round goes on.
		rep := runWrapped(t, s, func(i int, c transport.Conn) transport.Conn {
			if i == malformedVehicle {
				return shortConn{c}
			}
			return c
		}, malformedVehicle)
		if rep.RecvErrors != 1 {
			t.Errorf("%s: recv errors = %d, want 1", tc.name, rep.RecvErrors)
		}
		return s, rep
	}
	if tc.timeout > 0 {
		s.server.cfg.RoundTimeout = tc.timeout
	}
	inj := chaos.New(mustChaosSpec(t, tc.spec), chaos.Options{Sleeper: &obs.ManualSleeper{}})
	return s, chaosRun(t, s, inj, tc.retry)
}

// admitted is the case's admission mask: whether the engine's round
// (1-based) aggregates vehicle id's upload. The deferred pair and the
// malformed vehicle are never admitted; a certain (p = 1) upload drop
// aimed at one vehicle loses that vehicle's first Max uploads, rounds
// 1..Max. Every other fault in the matrix is recovered within its round.
func (tc engineCase) admitted(t *testing.T) func(round, id int) bool {
	t.Helper()
	if tc.deferred {
		return func(_, id int) bool { return id < engineVehicles-2 }
	}
	if tc.malformed {
		return func(_, id int) bool { return id != malformedVehicle }
	}
	if tc.flood {
		// The refusal is read before anything the vehicle sends for the
		// last round: the connection carries frames in order.
		return func(round, id int) bool { return id != floodVehicle || round < engineRounds }
	}
	lost := map[[2]int]bool{}
	for _, r := range mustChaosSpec(t, tc.spec).Rules {
		if r.Fault != "drop" {
			continue
		}
		if r.Kind != "upload" || r.Prob != 1 || r.Peer < 0 || r.Max < 1 {
			t.Fatalf("%s: drop rule %+v has no fixed admission mask", tc.name, r)
		}
		for round := 1; round <= r.Max; round++ {
			lost[[2]int{round, r.Peer}] = true
		}
	}
	return func(round, id int) bool { return !lost[[2]int{round, id}] }
}

// rewrite is the case's rewrite of vehicle id's upload values in place,
// for the engine's conn wrapper and the simulation alike; nil when the
// case rewrites nothing.
func (tc engineCase) rewrite(s *session) func(id int, values []float64) {
	if !tc.hostile {
		return nil
	}
	offset := 2 * len(s.server.cfg.RefX) / s.server.cfg.Scheme.NumBatches
	return func(id int, values []float64) {
		switch id {
		case hostileVehicles[0]:
			for j := range values[:offset] {
				values[j] = math.NaN()
			}
		case hostileVehicles[1]:
			values[offset] = math.Inf(1)
		}
	}
}

// simulate runs the session's scenario through fl.System — the same
// vehicle data, seeds, scheme, activation and liars — for the session's
// rounds, each aggregating only the uploads admitted marks, rewritten by
// rewrite when it is not nil, and returns the final parameters and every
// round's verdicts.
func simulate(t *testing.T, s *session, admitted func(round, id int) bool, rewrite func(id int, values []float64)) ([]float64, [][]fl.Verdict) {
	t.Helper()
	cfg := s.server.cfg
	data := make([][]nn.Sample, len(s.clients))
	for i, c := range s.clients {
		data[i] = c.Data
	}
	act := approx.FromPolynomial("wire-poly", poly.NewReal(cfg.ActivationCoeffs...))
	sys, err := fl.NewSystem(cfg.FL, data, cfg.RefX, act)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := core.NewScheme(cfg.RefX, cfg.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	mask := &admitChannel{admitted: admitted, rewrite: rewrite}
	var verdicts [][]fl.Verdict
	for r := 0; r < cfg.Rounds; r++ {
		stats, err := sys.RunRound(scheme, s.plan, mask)
		if err != nil {
			t.Fatal(err)
		}
		verdicts = append(verdicts, stats.Verdicts)
	}
	return sys.Shared().Params(), verdicts
}

// admitChannel is the simulation's admission mask: a channel that loses
// every upload the engine did not admit in the current round and delivers
// the others as the engine's conn wrappers rewrote them.
type admitChannel struct {
	round    int
	admitted func(round, id int) bool
	rewrite  func(id int, values []float64)
}

func (c *admitChannel) Name() string { return "admitted" }
func (c *admitChannel) RoundStart()  { c.round++ }

func (c *admitChannel) Transmit(id int, values []float64) bool {
	if !c.admitted(c.round, id) {
		return false
	}
	if c.rewrite != nil {
		c.rewrite(id, values)
	}
	return true
}

// flaggedIn lists, ascending, every vehicle with a Flagged verdict in any
// round: Report.SuspectedMalicious's rule.
func flaggedIn(rounds [][]fl.Verdict) []int {
	var out []int
	for id := range rounds[0] {
		for _, vs := range rounds {
			if vs[id] == fl.Flagged {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// entered maps a round's verdicts to its admitted set: Admitted and
// Flagged stay, every other verdict reads Lost.
func entered(vs []fl.Verdict) []fl.Verdict {
	out := make([]fl.Verdict, len(vs))
	for id, v := range vs {
		out[id] = fl.Lost
		if v == fl.Admitted || v == fl.Flagged {
			out[id] = v
		}
	}
	return out
}

// checkAdmitted requires one record per simulated round, each with one
// known verdict per vehicle, and the engine's admitted set — flagged
// vehicles marked — equal to the simulation's round for round.
func checkAdmitted(t *testing.T, name string, rep *Report, sim [][]fl.Verdict) {
	t.Helper()
	if len(rep.Records) != len(sim) {
		t.Fatalf("%s: %d round records, simulation ran %d rounds", name, len(rep.Records), len(sim))
	}
	for r, rec := range rep.Records {
		checkVerdicts(t, name, rec, len(sim[r]))
		if got, want := entered(rec.Verdicts), entered(sim[r]); !slices.Equal(got, want) {
			t.Errorf("%s round %d: engine admitted %v, simulation %v", name, rec.Round, got, want)
		}
	}
}

// checkVerdicts requires rec to hold one known verdict per vehicle, so
// that its verdicts sum to vehicles.
func checkVerdicts(t *testing.T, name string, rec RoundRecord, vehicles int) {
	t.Helper()
	var tally fl.Tally
	for _, v := range rec.Verdicts {
		if v >= fl.NumVerdicts {
			t.Fatalf("%s round %d: verdict %d is no kind", name, rec.Round, v)
		}
		tally[v]++
	}
	if n := len(rec.Verdicts); n != vehicles {
		t.Errorf("%s round %d: %d verdicts (%v), want one per vehicle, %d", name, rec.Round, n, tally, vehicles)
	}
}

// deferConn holds back every upload until the NEXT broadcast arrives,
// making its vehicle a deterministic straggler: its uploads always land
// one round late (stale), so a budget-closed round's excluded set is a
// fixed pair of vehicles rather than a scheduling race. It keeps a copy:
// the vehicle reuses its message once Send returns.
type deferConn struct {
	transport.Conn
	pending *protocol.Message
}

func (c *deferConn) Send(m *protocol.Message) error {
	if m.Upload != nil {
		c.pending = cloneUpload(m)
		return nil
	}
	return c.Conn.Send(m)
}

// cloneUpload returns a copy of an Upload message that shares nothing
// with it — what a wrapper that holds an upload past Send must keep.
func cloneUpload(m *protocol.Message) *protocol.Message {
	up := *m.Upload
	up.Values = slices.Clone(up.Values)
	return &protocol.Message{Upload: &up}
}

func (c *deferConn) Recv() (*protocol.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Broadcast != nil && c.pending != nil {
		late := c.pending
		c.pending = nil
		if err := c.Conn.Send(late); err != nil {
			return nil, err
		}
	}
	return m, err
}

// silentConn swallows every upload: its vehicle trains each round it is
// sent but is never heard from, so a budget close leaves it behind for
// good.
type silentConn struct{ transport.Conn }

func (c silentConn) Send(m *protocol.Message) error {
	if m.Upload != nil {
		return nil
	}
	return c.Conn.Send(m)
}

// floodConn makes its vehicle hostile on the wire. Every upload the
// vehicle sends goes out from the one buffer floodConn keeps, which it
// then overwrites with garbage and sends floodCopies times again as a
// duplicate and as many times as a stale upload for the round before,
// without waiting; after round engineRounds-1 it adds one upload for a
// round not yet broadcast, which costs it its connection. A fabric that
// kept the sender's slice would put the garbage into the aggregate, and
// an engine that queued what it is sent would hold every copy.
type floodConn struct {
	transport.Conn
	buf []float64
}

const floodCopies = 50

func (c *floodConn) Send(m *protocol.Message) error {
	if m.Upload == nil {
		return c.Conn.Send(m)
	}
	up := *m.Upload
	c.buf = append(c.buf[:0], up.Values...)
	up.Values = c.buf
	msg := &protocol.Message{Upload: &up}
	if err := c.Conn.Send(msg); err != nil {
		return err
	}
	round := up.Round
	for i := range c.buf {
		c.buf[i] = 1e9
	}
	for i := 0; i < floodCopies; i++ {
		up.Round = round // a duplicate of the upload just admitted
		if err := c.Conn.Send(msg); err != nil {
			return err
		}
		up.Round = round - 1 // stale
		if err := c.Conn.Send(msg); err != nil {
			return err
		}
	}
	if round == engineRounds-1 {
		up.Round = engineRounds + 1 // for a round not yet broadcast: refused
		return c.Conn.Send(msg)
	}
	return nil
}

// hostileConn sends each of its vehicle's uploads rewritten: a
// well-formed frame of the right length and round, whose values the
// engine admits as they are. It rewrites a copy it keeps, which Send
// leaves free for reuse once it returns.
type hostileConn struct {
	transport.Conn
	id      int
	rewrite func(id int, values []float64)
	buf     []float64
}

func (c *hostileConn) Send(m *protocol.Message) error {
	if m.Upload == nil {
		return c.Conn.Send(m)
	}
	up := *m.Upload
	c.buf = append(c.buf[:0], up.Values...)
	c.rewrite(c.id, c.buf)
	up.Values = c.buf
	return c.Conn.Send(&protocol.Message{Upload: &up})
}

// shortConn sends every upload one value short.
type shortConn struct{ transport.Conn }

func (c shortConn) Send(m *protocol.Message) error {
	if m.Upload != nil {
		up := *m.Upload
		up.Values = up.Values[:len(up.Values)-1]
		m = &protocol.Message{Upload: &up}
	}
	return c.Conn.Send(m)
}

// runWrapped runs the session with vehicle i's side of its connection
// wrapped by wrap(i, conn). Every vehicle but dropped (-1 for none) must
// end cleanly; dropped is one whose connection the fusion centre closes.
func runWrapped(t *testing.T, s *session, wrap func(i int, c transport.Conn) transport.Conn, dropped int) *Report {
	t.Helper()
	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			if err := RunVehicle(conn, s.clients[i]); err != nil && i != dropped {
				t.Errorf("vehicle %d: %v", i, err)
			}
		}(i, wrap(i, s.vconns[i]))
	}
	report, err := s.server.Run(s.conns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return report
}

// runLateSession runs a session with the given wait budget, the last two
// vehicles' connections wrapped by late.
func runLateSession(t *testing.T, vehicles, rounds, waitBudget int, late func(transport.Conn) transport.Conn, o *obs.Obs) (*session, *Report) {
	t.Helper()
	s := buildSessionObs(t, vehicles, rounds, 0, o)
	s.server.cfg.WaitBudget = waitBudget
	return s, runWrapped(t, s, func(i int, c transport.Conn) transport.Conn {
		if i >= vehicles-2 {
			return late(c)
		}
		return c
	}, -1)
}

// runDeferredSession is runLateSession with the last two vehicles
// deferring every upload one round (deferConn).
func runDeferredSession(t *testing.T, vehicles, rounds, waitBudget int, o *obs.Obs) (*session, *Report) {
	t.Helper()
	return runLateSession(t, vehicles, rounds, waitBudget,
		func(c transport.Conn) transport.Conn { return &deferConn{Conn: c} }, o)
}

// TestPipelineEarlyClose pins the wait-budget close: with the last two
// vehicles always a round late and WaitBudget=2 (close at K+2 — exactly
// the punctual fleet), the same two vehicles are excluded from every
// round, so the outcome is deterministic: bit-identical FinalParams across
// worker counts, stragglers = 2 per round, no degraded round, and one
// node.early_close event per budget close. A session no longer than
// pipelineWindow closes every round by budget; what closes round
// pipelineWindow+1 depends on when the late pair's stale uploads land,
// and TestStepWindowSchedules pins both schedules.
func TestPipelineEarlyClose(t *testing.T) {
	const vehicles = 12 // K = 8, punctual fleet = 10 = K+2
	for _, rounds := range []int{pipelineWindow, pipelineWindow + 1} {
		reg := obs.NewRegistry()
		var trace bytes.Buffer
		clock := &obs.ManualClock{}
		tr := obs.NewTracer(&trace, clock)
		setProcs(t, 1)
		_, base := runDeferredSession(t, vehicles, rounds, 2, obs.New(reg, tr, clock))
		got := int(reg.Snapshot().Counters["node.early_closes"])
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		// The counter's declared twin: one node.early_close event per
		// budget close.
		if events := strings.Count(trace.String(), `"ev":"node.early_close"`); events != got {
			t.Errorf("rounds=%d: %d node.early_close events, node.early_closes = %d", rounds, events, got)
		}
		if rounds <= pipelineWindow && got != rounds {
			t.Errorf("rounds=%d: node.early_closes = %d, want %d", rounds, got, rounds)
		}
		if base.Stragglers != 2*rounds {
			t.Errorf("rounds=%d: stragglers = %d, want %d", rounds, base.Stragglers, 2*rounds)
		}
		if base.DegradedRounds != 0 {
			t.Errorf("rounds=%d: degraded rounds = %d", rounds, base.DegradedRounds)
		}
		for _, procs := range []int{2, 8} {
			setProcs(t, procs)
			_, rep := runDeferredSession(t, vehicles, rounds, 2, nil)
			if !sameBits(rep.FinalParams, base.FinalParams) {
				t.Errorf("rounds=%d procs=%d: budget-closed run not deterministic", rounds, procs)
			}
			if rep.Stragglers != base.Stragglers {
				t.Errorf("rounds=%d procs=%d: stragglers %d, want %d", rounds, procs, rep.Stragglers, base.Stragglers)
			}
		}
	}
}

// TestPipelineWindowWithholding pins the bounded in-flight window: two
// vehicles that never upload are left behind by every budget close, and
// once they trail by more than pipelineWindow rounds their broadcasts are
// withheld (they are not even outstanding, so later rounds close as "all"
// without waiting). The session still terminates cleanly — Finished
// reaches the withheld vehicles too.
func TestPipelineWindowWithholding(t *testing.T) {
	const vehicles, rounds = 12, pipelineWindow + 2
	reg := obs.NewRegistry()
	o := obs.New(reg, nil, nil)
	setProcs(t, 1)
	_, rep := runLateSession(t, vehicles, rounds, 2,
		func(c transport.Conn) transport.Conn { return silentConn{c} }, o)
	if rep.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", rep.Rounds, rounds)
	}
	// Rounds 1..pipelineWindow close by budget (the silent pair still
	// outstanding); from then on they are withheld, so the collect step
	// drains the punctual fleet and ends naturally — no further early
	// closes.
	if got := reg.Snapshot().Counters["node.early_closes"]; got != pipelineWindow {
		t.Errorf("node.early_closes = %d, want %d", got, pipelineWindow)
	}
	if rep.Stragglers != 2*rounds {
		t.Errorf("stragglers = %d, want %d", rep.Stragglers, 2*rounds)
	}
	if rep.DegradedRounds != 0 {
		t.Errorf("degraded rounds = %d", rep.DegradedRounds)
	}
}

// TestStatusWaitBudget pins the /roundz encoding of the wait budget: the
// configured value as ServerConfig spells it (0 = wait for all) next to
// the arrival count that closes a round early.
func TestStatusWaitBudget(t *testing.T) {
	for _, budget := range []int{0, 1, 2} {
		s := buildSession(t, 12, 1, 0)
		s.server.cfg.WaitBudget = budget
		s.run(t)
		k := s.server.scheme.RecoverThreshold()
		target := map[int]int{0: 0, 1: k + 1, 2: k + 2}[budget]
		st := s.server.Status()
		if st.WaitBudget != budget || st.BudgetTarget != target || st.RecoverK != k {
			t.Errorf("WaitBudget=%d: status wait_budget=%d budget_target=%d recover_k=%d, want %d, %d, %d",
				budget, st.WaitBudget, st.BudgetTarget, st.RecoverK, budget, target, k)
		}
	}
}

// TestFloodingVehicle runs the engine against floodConn's hostile vehicle
// at every worker count: the session must end on the simulation's model
// over what the engine admitted — every honest upload, and the hostile
// vehicle's real ones until its refused upload drops it — as if nothing
// else had been sent.
func TestFloodingVehicle(t *testing.T) {
	matchSimulation(t, []engineCase{{name: "flood", flood: true}})
}

// TestReceiverBlocksOnItsBuffers pins what a flooding peer costs the
// engine: its connection's receiver copies uploads into two buffers of
// its own and, with both handed to the engine, reads nothing more until
// one comes back — so a backlog stays in the peer's fabric, not in the
// engine's memory — and the buffer that comes back is the one it fills
// next.
func TestReceiverBlocksOnItsBuffers(t *testing.T) {
	s := buildSession(t, engineVehicles, 1, 0)
	e := &engine{s: s.server, results: make(chan result, 100)}
	serverEnd, vehicleEnd := transport.Pipe()
	defer vehicleEnd.Close()
	defer serverEnd.Close()
	defer close(s.server.done)
	e.receive(0, serverEnd)
	vals := make([]float64, s.server.scheme.UploadLen())
	msg := &protocol.Message{Upload: &protocol.Upload{VehicleID: 0, Values: vals}}
	const sent = 10
	for r := 1; r <= sent; r++ {
		msg.Upload.Round = r
		for i := range vals {
			vals[i] = float64(r)
		}
		if err := vehicleEnd.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	next := func(round int) result {
		t.Helper()
		select {
		case u := <-e.results:
			if u.err != nil || u.round != round || u.size != len(vals) || u.values[0] != float64(round) || u.values[len(vals)-1] != float64(round) {
				t.Fatalf("result %+v, want round %d's upload", u, round)
			}
			return u
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d's upload never delivered", round)
			return result{}
		}
	}
	first, second := next(1), next(2)
	if &first.values[0] == &second.values[0] {
		t.Fatal("two held uploads share one buffer")
	}
	select {
	case u := <-e.results:
		t.Fatalf("a third upload (round %d) was delivered while both buffers were held", u.round)
	case <-time.After(50 * time.Millisecond):
	}
	buf := first.values
	first.release()
	if third := next(3); &third.values[0] != &buf[0] {
		t.Fatal("the receiver filled a new buffer instead of the one handed back")
	}
}

// TestMixedFaultVerdicts puts four faults in one pipe session: a
// straggler (a vehicle whose uploads always land a round late, left out
// by the wait budget), a liar the decoder locates, one corrupt upload
// frame and a crash-and-rejoin. It checks every vehicle's verdict in
// every round, the recovery work each record counts, the Report totals
// summed from them, and — every fault but the straggler being absorbed
// within its round — the admitted sets against fl.System's. The session
// is pipelineWindow rounds long, so the straggler is never so far behind
// that its broadcast is withheld: it is late, by the budget, every round.
func TestMixedFaultVerdicts(t *testing.T) {
	const rounds = pipelineWindow
	setProcs(t, 1)
	s := buildSessionObs(t, engineVehicles, rounds, 0.1, nil)
	liars := s.plan.IDs()
	if len(liars) != 1 {
		t.Fatalf("plan has %d liars, want 1", len(liars))
	}
	// The straggler, the crashing vehicle and the one whose upload frame
	// is corrupted: the highest IDs that are not the liar.
	var picks []int
	for id := engineVehicles - 1; len(picks) < 3; id-- {
		if id != liars[0] {
			picks = append(picks, id)
		}
	}
	late, crashed, corrupted := picks[0], picks[1], picks[2]
	// Close at every vehicle but the straggler: the round waits for the
	// crashed vehicle's resend, since that vehicle still owes it.
	k := s.server.scheme.RecoverThreshold()
	s.server.cfg.WaitBudget = engineVehicles - 1 - k
	s.vconns[late] = &deferConn{Conn: s.vconns[late]}
	spec := fmt.Sprintf("seed=11;corrupt.upload@%d=1:max=1;crash@%d=before-upload:2", corrupted, crashed)
	inj := chaos.New(mustChaosSpec(t, spec), chaos.Options{Sleeper: &obs.ManualSleeper{}})
	rep := chaosRun(t, s, inj, map[int]bool{crashed: true})

	for _, rec := range rep.Records {
		checkVerdicts(t, "mixed", rec, engineVehicles)
		for id, v := range rec.Verdicts {
			want := fl.Admitted
			switch id {
			case late:
				want = fl.Late
			case liars[0]:
				want = fl.Flagged
			}
			if v != want {
				t.Errorf("round %d: vehicle %d verdict %v, want %v", rec.Round, id, v, want)
			}
		}
		corrupt, rejoins := 0, 0
		if rec.Round == 1 {
			corrupt = 1
		}
		if rec.Round == 2 {
			rejoins = 1
		}
		if rec.CorruptFrames != corrupt || rec.Retransmits != corrupt || rec.Rejoins != rejoins ||
			rec.ClosedBy != "budget" || rec.Arrived != engineVehicles-1 || rec.Degraded {
			t.Errorf("round %d record %+v: want %d corrupt frame and retransmit, %d rejoin, closed by budget on %d uploads",
				rec.Round, rec, corrupt, rejoins, engineVehicles-1)
		}
	}
	if len(rep.Records) != rounds || rep.Stragglers != rounds || rep.CorruptFrames != 1 || rep.Retransmits != 1 ||
		rep.Rejoins != 1 || rep.DegradedRounds != 0 || !slices.Equal(rep.SuspectedMalicious, liars) {
		t.Errorf("report %+v: want %d records and stragglers, one corrupt frame, retransmit and rejoin, liar %v flagged",
			rep, rounds, liars)
	}
	params, verdicts := simulate(t, s, func(_, id int) bool { return id != late }, nil)
	if !sameBits(rep.FinalParams, params) {
		t.Error("engine FinalParams diverged from the simulation's")
	}
	checkAdmitted(t, "mixed", rep, verdicts)
}
