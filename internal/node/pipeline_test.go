package node

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// pipelineCase is one cell of the chaos axis of the bit-identity matrix.
type pipelineCase struct {
	name    string
	spec    string
	retry   map[int]bool  // vehicles running under RunVehicleRetry
	timeout time.Duration // round timeout override (0 = session default)
}

// runPipelineSession executes one chaos session and returns its report.
// lockstep selects the legacy engine.
func runPipelineSession(t *testing.T, vehicles, rounds, workers int, lockstep bool, tc pipelineCase) *Report {
	t.Helper()
	s := buildSessionFull(t, vehicles, rounds, 0, nil, workers)
	s.server.cfg.DisablePipeline = lockstep
	if tc.timeout > 0 {
		s.server.cfg.RoundTimeout = tc.timeout
	}
	inj := chaos.New(mustChaosSpec(t, tc.spec), chaos.Options{Sleeper: &obs.ManualSleeper{}})
	return chaosRun(t, s, inj, tc.retry)
}

// TestPipelineBitIdentical pins the tentpole invariant: for every
// schedule (chaos spec) and worker count, the pipelined engine produces
// bit-identical FinalParams — and identical recovery counters — to the
// lock-step engine forced by DisablePipeline.
func TestPipelineBitIdentical(t *testing.T) {
	cases := []pipelineCase{
		// One silently dropped upload: a timeout-closed round with a
		// straggler, recovered next round.
		{name: "drop", spec: "seed=3;drop.upload@3=1:max=1", timeout: time.Second},
		// Injected upload delays (recorded, not slept, so schedules stay
		// deterministic) exercise the arrival-order machinery.
		{name: "delay", spec: "seed=4;delay.upload=0.5:10ms"},
		crashCase,
	}
	comparePipelineToLockstep(t, cases)
}

// crashCase: corrupt frames with bounded retransmits plus a
// crash-and-rejoin. Vehicle 4's round-2 upload arrives through the rejoin
// resend, inside round 2 because chaosRun gates that round's close on the
// rejoin (rejoinGate).
var crashCase = pipelineCase{name: "crash", spec: "seed=9;corrupt.upload=0.3:max=1;crash@4=before-upload:2",
	retry: map[int]bool{4: true}}

// TestCrashRejoinBitIdentical is the crash cell of TestPipelineBitIdentical
// on its own: no timeout-closed round, so it is fast enough for CI to
// repeat a hundred times under the race detector — the rate at which the
// rejoin race this cell once lost would show.
func TestCrashRejoinBitIdentical(t *testing.T) {
	comparePipelineToLockstep(t, []pipelineCase{crashCase})
}

// comparePipelineToLockstep runs every case on the lock-step engine and
// on the pipelined engine at 1, 2 and 8 workers, and requires
// bit-identical FinalParams and identical recovery counters.
func comparePipelineToLockstep(t *testing.T, cases []pipelineCase) {
	t.Helper()
	const vehicles, rounds = 12, 3
	for _, tc := range cases {
		base := runPipelineSession(t, vehicles, rounds, 1, true, tc)
		if base.Rounds != rounds {
			t.Fatalf("%s: lock-step rounds = %d", tc.name, base.Rounds)
		}
		for _, workers := range []int{1, 2, 8} {
			rep := runPipelineSession(t, vehicles, rounds, workers, false, tc)
			if !sameBits(rep.FinalParams, base.FinalParams) {
				t.Errorf("%s workers=%d: pipelined FinalParams diverged from lock-step", tc.name, workers)
			}
			// RecvErrors is compared only for crash-free specs: whether
			// the fusion centre's receiver observes a killed conn's EOF
			// before the rejoin replaces it is a scheduling race in BOTH
			// engines (TestChaosRecoveryBitIdentical omits it likewise).
			if tc.retry == nil && rep.RecvErrors != base.RecvErrors {
				t.Errorf("%s workers=%d: recv errors %d, lock-step %d",
					tc.name, workers, rep.RecvErrors, base.RecvErrors)
			}
			if rep.Rounds != base.Rounds ||
				rep.Stragglers != base.Stragglers ||
				rep.CorruptFrames != base.CorruptFrames ||
				rep.Retransmits != base.Retransmits ||
				rep.Rejoins != base.Rejoins ||
				rep.DegradedRounds != base.DegradedRounds {
				t.Errorf("%s workers=%d: recovery counters diverged:\npipelined %+v\nlock-step %+v",
					tc.name, workers, rep, base)
			}
			if len(rep.SuspectedMalicious) != len(base.SuspectedMalicious) {
				t.Errorf("%s workers=%d: flagged %v, lock-step %v",
					tc.name, workers, rep.SuspectedMalicious, base.SuspectedMalicious)
			}
		}
	}
}

// deferConn holds back every upload until the NEXT broadcast arrives,
// making its vehicle a deterministic straggler: its uploads always land
// one round late (stale), so a budget-closed round's excluded set is a
// fixed pair of vehicles rather than a scheduling race.
type deferConn struct {
	transport.Conn
	pending *protocol.Message
}

func (c *deferConn) Send(m *protocol.Message) error {
	if m.Upload != nil {
		c.pending = m
		return nil
	}
	return c.Conn.Send(m)
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

// runDeferredSession runs a session where the last two vehicles defer
// every upload one round (deferConn), under the given pipeline knobs.
func runDeferredSession(t *testing.T, vehicles, rounds, workers, waitBudget, window int, o *obs.Obs) *Report {
	t.Helper()
	s := buildSessionFull(t, vehicles, rounds, 0, o, workers)
	s.server.cfg.WaitBudget = waitBudget
	if window > 0 {
		s.server.cfg.PipelineWindow = window
	}
	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		conn := s.vconns[i]
		if i >= vehicles-2 {
			conn = &deferConn{Conn: conn}
		}
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			if err := RunVehicle(conn, s.clients[i]); err != nil {
				t.Errorf("vehicle %d: %v", i, err)
			}
		}(i, conn)
	}
	report, err := s.server.Run(s.conns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return report
}

// TestPipelineEarlyClose pins the wait-budget close: with the last two
// vehicles always a round late and WaitBudget=2 (close at K+2 — exactly
// the punctual fleet), the same two vehicles are excluded from every
// round, so the outcome is deterministic: bit-identical FinalParams across
// worker counts, stragglers = 2 per round, no degraded round.
//
// It runs at the default in-flight window (0: what every binary uses) and
// with the window set to the session length. Only the second pins
// node.early_closes = rounds. At the default of 2 the count is rounds or
// rounds-1 by scheduling: rounds 1 and 2 always close by budget, but if
// the late pair's round-1 uploads are first seen after round 3's
// broadcast, that broadcast is withheld from them and round 3 has nobody
// left to close early on (closed_by "all"; about 1 run in 60). The model
// and the straggler count are the same either way.
func TestPipelineEarlyClose(t *testing.T) {
	const vehicles, rounds = 12, 3 // K = 8, punctual fleet = 10 = K+2
	var first *Report
	for _, window := range []int{0, rounds} {
		reg := obs.NewRegistry()
		o := obs.New(reg, nil, nil)
		base := runDeferredSession(t, vehicles, rounds, 1, 2, window, o)
		got := reg.Counter("node.early_closes").Value()
		if window == 0 && (got < rounds-1 || got > rounds) {
			t.Errorf("window=default: node.early_closes = %d, want %d or %d", got, rounds-1, rounds)
		}
		if window == rounds && got != rounds {
			t.Errorf("window=%d: node.early_closes = %d, want %d", window, got, rounds)
		}
		if base.Stragglers != 2*rounds {
			t.Errorf("window=%d: stragglers = %d, want %d", window, base.Stragglers, 2*rounds)
		}
		if base.DegradedRounds != 0 {
			t.Errorf("window=%d: degraded rounds = %d", window, base.DegradedRounds)
		}
		if first == nil {
			first = base
		} else if !sameBits(base.FinalParams, first.FinalParams) {
			t.Errorf("window=%d: FinalParams differ from the default window's", window)
		}
		for _, workers := range []int{2, 8} {
			rep := runDeferredSession(t, vehicles, rounds, workers, 2, window, nil)
			if !sameBits(rep.FinalParams, base.FinalParams) {
				t.Errorf("window=%d workers=%d: budget-closed run not deterministic", window, workers)
			}
			if rep.Stragglers != base.Stragglers {
				t.Errorf("window=%d workers=%d: stragglers %d, want %d", window, workers, rep.Stragglers, base.Stragglers)
			}
		}
	}
}

// TestPipelineWindowWithholding pins the bounded in-flight window: with
// PipelineWindow=1 the two behind vehicles exceed the window after the
// first budget close, their broadcasts are withheld (they are not even
// outstanding, so later rounds close as "all" without waiting), and the
// session still terminates cleanly — Finished reaches the withheld
// vehicles too.
func TestPipelineWindowWithholding(t *testing.T) {
	const vehicles, rounds = 12, 4
	reg := obs.NewRegistry()
	o := obs.New(reg, nil, nil)
	rep := runDeferredSession(t, vehicles, rounds, 1, 2, 1, o)
	if rep.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", rep.Rounds, rounds)
	}
	// Round 1 closes by budget (the deferring pair still outstanding);
	// from round 2 on they are withheld, so the collect loop drains the
	// punctual fleet and exits naturally — no further early closes.
	if got := reg.Counter("node.early_closes").Value(); got != 1 {
		t.Errorf("node.early_closes = %d, want 1", got)
	}
	if rep.Stragglers != 2*rounds {
		t.Errorf("stragglers = %d, want %d", rep.Stragglers, 2*rounds)
	}
	if rep.DegradedRounds != 0 {
		t.Errorf("degraded rounds = %d", rep.DegradedRounds)
	}
}
