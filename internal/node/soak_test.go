package node

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/obs"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// soakInt reads a positive integer knob from the environment, so CI can
// scale the soak tests (SOAK_SESSIONS=3 SOAK_VEHICLES=100) without a
// separate binary.
func soakInt(t testing.TB, name string, def int) int {
	t.Helper()
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("%s=%q: want a positive integer", name, v)
	}
	return n
}

// soakScenario is fleetScenario shaped for scale: NumBatches is pinned
// to 2 so the recover threshold K stays 2 for any vehicle count (the
// fleet size no longer has to divide the reference rows), the round
// timeout is generous enough for hundreds of connections under the race
// detector.
func soakScenario(t testing.TB, ids []string, vehicles, rounds int) (map[string]ServerConfig, map[string][]ClientConfig) {
	t.Helper()
	if vehicles < 2 {
		t.Fatalf("soak scenario needs >= 2 vehicles, got %d", vehicles)
	}
	refDS, err := traffic.Generate(traffic.GenConfig{Rows: 8 * 24, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	refX := refDS.Features()
	act := approx.SymmetricSigmoid()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(act.F, -2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := 600
	if rows < 6*vehicles {
		rows = 6 * vehicles
	}
	cfgs := make(map[string]ServerConfig, len(ids))
	clients := make(map[string][]ClientConfig, len(ids))
	for j, id := range ids {
		seed := int64(700 + 10*j)
		ds, err := traffic.Generate(traffic.GenConfig{Rows: rows, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		parts, err := ds.PartitionIID(vehicles, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[id] = ServerConfig{
			FL: fl.Config{
				InputSize:     traffic.NumFeatures,
				LocalEpochs:   2,
				LocalRate:     0.2,
				DistillEpochs: 8,
				DistillRate:   0.2,
				ServerStep:    0.5,
				Seed:          seed + 2,
			},
			Scheme: core.SchemeConfig{
				NumVehicles: vehicles, NumBatches: 2, Degree: 1, Seed: seed + 3,
			},
			RefX:             refX,
			ActivationCoeffs: p,
			Rounds:           rounds,
			RoundTimeout:     60 * time.Second,
		}
		cc := make([]ClientConfig, vehicles)
		for i := 0; i < vehicles; i++ {
			cc[i] = ClientConfig{VehicleID: i, SessionID: id, Data: parts[i], Seed: seed + int64(50+i)}
		}
		clients[id] = cc
	}
	return cfgs, clients
}

// soloRun executes one session on a dedicated server over
// plain pipes — the single-session baseline the fleet runs are compared
// against bit-for-bit.
func soloRun(t testing.TB, cfg ServerConfig, clients []ClientConfig) *Report {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var conns []transport.Conn
	var wg sync.WaitGroup
	for i := range clients {
		serverEnd, vehicleEnd := transport.Pipe()
		conns = append(conns, serverEnd)
		cc := clients[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer vehicleEnd.Close()
			if err := RunVehicle(vehicleEnd, cc); err != nil {
				t.Errorf("solo vehicle %d: %v", cc.VehicleID, err)
			}
		}()
	}
	report, err := srv.Run(conns)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// soakDrive runs every session's vehicles against a dial function.
// Session chaosID is the chaos shard: its vehicles send through the
// injector, and vehicle 1 runs under RunVehicleRetry so a scheduled
// crash recovers through the fleet's rejoin path.
func soakDrive(t testing.TB, dial func() (transport.Conn, error), clients map[string][]ClientConfig, ids []string, chaosID string, inj *chaos.Injector) error {
	t.Helper()
	errCh := make(chan error, 1024)
	var wg sync.WaitGroup
	for _, id := range ids {
		for _, cc := range clients[id] {
			wg.Add(1)
			go func(id string, cc ClientConfig) {
				defer wg.Done()
				if id == chaosID && inj != nil && cc.VehicleID == 1 {
					err := RunVehicleRetry(cc, RetryConfig{
						Dial: func() (transport.Conn, error) {
							conn, err := dial()
							if err != nil {
								return nil, err
							}
							return inj.Wrap(cc.VehicleID, conn), nil
						},
						MaxAttempts: 10,
						Sleeper:     &obs.ManualSleeper{},
					})
					if err != nil {
						errCh <- fmt.Errorf("retry vehicle %s/%d: %w", id, cc.VehicleID, err)
					}
					return
				}
				conn, err := dial()
				if err != nil {
					errCh <- fmt.Errorf("vehicle %s/%d dial: %w", id, cc.VehicleID, err)
					return
				}
				defer conn.Close()
				if id == chaosID && inj != nil {
					conn = inj.Wrap(cc.VehicleID, conn)
				}
				if err := RunVehicle(conn, cc); err != nil {
					errCh <- fmt.Errorf("vehicle %s/%d: %w", id, cc.VehicleID, err)
				}
			}(id, cc)
		}
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}

// TestFleetSoakWorkersSweep pins the fleet-scale determinism claim: a
// multi-session fleet under chaos churn — delayed uploads on one shard
// plus a crash-and-rejoin through the fleet's admission path — produces
// per-session aggregates bit-identical to the single-session
// baseline, at every GOMAXPROCS in {1, 2, 8}.
func TestFleetSoakWorkersSweep(t *testing.T) {
	ids := []string{"s0", "s1", "s2"}
	const vehicles, rounds = 6, 2

	setProcs(t, 1)
	baseCfgs, baseClients := soakScenario(t, ids, vehicles, rounds)
	baseline := make(map[string]*Report, len(ids))
	for _, id := range ids {
		baseline[id] = soloRun(t, baseCfgs[id], baseClients[id])
	}

	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		cfgs, clients := soakScenario(t, ids, vehicles, rounds)
		fleet, err := NewFleet(FleetConfig{Sessions: cfgs})
		if err != nil {
			t.Fatal(err)
		}
		fab := transport.NewPipeFabric()
		serveErr := make(chan error, 1)
		go func() { serveErr <- fleet.Serve(fab) }()

		// Shard s0 is the chaos shard: vehicle 1 crashes before its round-2
		// upload, so that upload is only ever delivered through the rejoin
		// resend, and round 2, which vehicle 1 still owes, waits for it;
		// vehicle 2's uploads are held 60ms (first matching rule wins). The
		// rest of the shard rides probabilistic 1ms delays.
		inj := chaos.New(mustChaosSpec(t, "seed=11;delay.upload@2=1:60ms;delay.upload=0.2:1ms;crash@1=before-upload:2"),
			chaos.Options{})
		if err := soakDrive(t, fab.Dial, clients, ids, ids[0], inj); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if err := <-serveErr; err != nil {
			t.Fatalf("procs=%d: fleet serve: %v", procs, err)
		}

		results := fleet.Results()
		for _, id := range ids {
			r := results[id]
			if r.Err != nil || r.Report == nil || r.Report.Rounds != rounds {
				t.Fatalf("procs=%d session %s: report=%+v err=%v", procs, id, r.Report, r.Err)
			}
			if !sameBits(r.Report.FinalParams, baseline[id].FinalParams) {
				t.Errorf("procs=%d session %s: fleet aggregate diverged from single-session baseline", procs, id)
			}
		}
		if rj := results[ids[0]].Report.Rejoins; rj < 1 {
			t.Errorf("procs=%d: chaos shard rejoins = %d, want >= 1", procs, rj)
		}
		if st := fleet.Status(); st.Live != 0 || st.Committed != 0 {
			t.Errorf("procs=%d: drained status live=%d committed=%d", procs, st.Live, st.Committed)
		}
	}
}

// TestFleetSoakTCP is the scale soak: SOAK_SESSIONS concurrent sessions
// of SOAK_VEHICLES vehicles each, over real TCP sockets, with one
// chaos-delayed shard and the connection budget squeezed so the last
// session rides through the admission queue. Each session must complete
// every round, the chaos shard's aggregate must stay bit-identical to
// its single-session pipe baseline, and the fleet must drain to zero.
// CI runs this at 3x100 under -race; the checked-in default stays small
// enough for the ordinary test suite.
func TestFleetSoakTCP(t *testing.T) {
	sessions := soakInt(t, "SOAK_SESSIONS", 3)
	vehicles := soakInt(t, "SOAK_VEHICLES", 8)
	rounds := soakInt(t, "SOAK_ROUNDS", 2)
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
	}
	cfgs, clients := soakScenario(t, ids, vehicles, rounds)

	fcfg := FleetConfig{Sessions: cfgs, HandshakeTimeout: 30 * time.Second}
	if sessions > 1 {
		// Budget for all but one session: the last complement to arrive
		// parks in the queue and is admitted when a session completes.
		fcfg.MaxConns = (sessions - 1) * vehicles
		fcfg.QueueDepth = sessions * vehicles
	}
	fleet, err := NewFleet(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	serveErr := make(chan error, 1)
	go func() { serveErr <- fleet.Serve(ln) }()

	// Shard s0 rides through real scheduled delays (the injector's default
	// wall-clock sleeper): every vehicle's uploads are held 1ms with
	// probability 0.3, so frames from the delayed shard interleave with
	// the healthy shards' traffic in every round.
	inj := chaos.New(mustChaosSpec(t, "seed=17;delay.upload=0.3:1ms"), chaos.Options{})
	dial := func() (transport.Conn, error) { return transport.DialTCP(addr) }
	if err := soakDrive(t, dial, clients, ids, ids[0], inj); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("fleet serve: %v", err)
	}
	results := fleet.Results()
	for _, id := range ids {
		r := results[id]
		if r.Err != nil || r.Report == nil || r.Report.Rounds != rounds {
			t.Fatalf("session %s: report=%+v err=%v", id, r.Report, r.Err)
		}
	}
	baseline := soloRun(t, cfgs[ids[0]], clients[ids[0]])
	if !sameBits(results[ids[0]].Report.FinalParams, baseline.FinalParams) {
		t.Error("chaos-delayed shard diverged from its single-session pipe baseline")
	}

	st := fleet.Status()
	if st.Live != 0 || st.Committed != 0 {
		t.Errorf("drained status live=%d committed=%d", st.Live, st.Committed)
	}
	if st.Admitted < sessions*vehicles {
		t.Errorf("admitted %d, want >= %d", st.Admitted, sessions*vehicles)
	}
	if sessions > 1 && st.QueuedTotal < 1 {
		t.Errorf("queued total %d — the budget squeeze never queued a session", st.QueuedTotal)
	}
}
