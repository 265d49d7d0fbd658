// The networked commands' one session runner: serve, dist and soak each
// run their sessions behind a node.Fleet, over TCP or the in-memory pipe
// fabric, every session's scenario derived from the master seed (both
// sides of a TCP deployment rebuild it from the seed alone). See
// DESIGN.md §16.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/obs/debugz"
	"repro/internal/parallel"
	"repro/internal/transport"
)

// fleetSessionIDs names n sessions s0..s{n-1}.
func fleetSessionIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
	}
	return ids
}

// fleetSessionSeed derives session j's master seed: a fixed odd stride
// keeps per-session datasets and models distinct and reproducible.
func fleetSessionSeed(seed int64, j int) int64 { return seed + 1009*int64(j) }

// buildFleetScenario derives one independent, deterministic deployment per
// session from the master seed — session j's deploy at its own
// fleetSessionSeed, its vehicles named into session s<j> — so a fusion
// centre and remote vehicles agree without exchanging data files.
func buildFleetScenario(sessions, vehicles, rounds int, seed int64, malicious float64, ob *obs.Obs) ([]*experiments.Deployment, error) {
	if vehicles < 4 {
		return nil, fmt.Errorf("fleet scenario needs at least 4 vehicles per session, got %d", vehicles)
	}
	deps := make([]*experiments.Deployment, sessions)
	for j, id := range fleetSessionIDs(sessions) {
		d, err := deploy(vehicles, rounds, fleetSessionSeed(seed, j), malicious, ob)
		if err != nil {
			return nil, err
		}
		for i := range d.Clients {
			d.Clients[i].SessionID = id
		}
		deps[j] = d
	}
	return deps, nil
}

// runFleetScenario drives every session's vehicles concurrently against
// the fusion centre's dial, each under bounded-reconnect retry. Session "s0" is the chaos
// shard: when an injector is configured, its vehicles' connections are
// wrapped (the injector persists across redials, so a spec'd crash fires
// exactly once per vehicle).
func runFleetScenario(dial func() (transport.Conn, error), clients map[string][]node.ClientConfig, inj *chaos.Injector, retries int, ob *obs.Obs) error {
	ids := make([]string, 0, len(clients))
	for id := range clients {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var fleet parallel.Group
	for _, id := range ids {
		for _, cc := range clients[id] {
			id, cc := id, cc
			fleet.Go(func() error {
				d := func() (transport.Conn, error) {
					conn, err := dial()
					if err != nil {
						return nil, err
					}
					if id == "s0" {
						conn = chaosWrap(inj, cc.VehicleID, conn)
					}
					return conn, nil
				}
				err := node.RunVehicleRetry(cc, node.RetryConfig{
					Dial:        d,
					MaxAttempts: retries,
					BaseDelay:   time.Millisecond,
					Obs:         ob,
				})
				if err != nil {
					return fmt.Errorf("vehicle %s/%d: %w", id, cc.VehicleID, err)
				}
				return nil
			})
		}
	}
	return fleet.Wait()
}

// fleetRun is what serve, dist and soak run: sessions s0..s{n-1} of the
// derived scenario behind one node.Fleet, the only way a networked
// session admits, handshakes and revives its vehicles.
type fleetRun struct {
	cmd                        string // the command, named on every output line
	addr                       string // TCP listen address; "" runs over the in-memory pipe fabric
	sessions, vehicles, rounds int
	seed                       int64
	malicious                  float64
	timeout                    time.Duration // per-round upload deadline; 0 is the engine's default
	maxConns, queueDepth       int
	pipeline                   func(*node.ServerConfig) // nil keeps the engine's defaults
	checkpoint                 string                   // with one session, where its final model is written
	// local runs every vehicle in this process under bounded retry (dist,
	// soak), inj faulting session s0's connections; serve's vehicles are
	// other processes.
	local   bool
	inj     *chaos.Injector
	retries int
}

// run serves the sessions until every one completes and prints, per
// session, its completed / flagged / stragglers line, its accuracy and
// its verdict totals, so one session's output ends on the verdict line.
func (r fleetRun) run(ob *obs.Obs, dbg *debugz.Server) (map[string]node.SessionResult, error) {
	deps, err := buildFleetScenario(r.sessions, r.vehicles, r.rounds, r.seed, r.malicious, ob)
	if err != nil {
		return nil, err
	}
	ids := fleetSessionIDs(r.sessions)
	cfgs := make(map[string]node.ServerConfig, len(ids))
	clients := make(map[string][]node.ClientConfig, len(ids))
	for j, d := range deps {
		d.Server.RoundTimeout = r.timeout
		if r.pipeline != nil {
			r.pipeline(&d.Server)
		}
		cfgs[ids[j]], clients[ids[j]] = d.Server, d.Clients
	}
	fleet, err := node.NewFleet(node.FleetConfig{
		Sessions:       cfgs,
		DefaultSession: "s0",
		MaxConns:       r.maxConns,
		QueueDepth:     r.queueDepth,
		Obs:            ob,
	})
	if err != nil {
		return nil, err
	}
	dbg.SetSessionz(func() any { return fleet.Status() })
	// /roundz serves session s0's engine, first in the snapshot's ID order.
	dbg.SetRoundz(func() any { return fleet.Status().Sessions[0].Engine })

	var ln transport.Listener = transport.NewPipeFabric()
	over := "in-memory pipes"
	if r.addr != "" {
		if ln, err = transport.ListenTCP(r.addr); err != nil {
			return nil, err
		}
		over = "tcp " + ln.Addr()
	}
	// label names the session on its lines when there is more than one.
	label := func(id string) string {
		if r.sessions == 1 {
			return ""
		}
		return "session " + id + " "
	}
	fmt.Printf("lcofl %s: %d sessions x %d vehicles x %d rounds over %s\n", r.cmd, r.sessions, r.vehicles, r.rounds, over)
	for j, d := range deps {
		if d.Plan != nil {
			fmt.Printf("lcofl %s: %s%d malicious vehicles: %v\n", r.cmd, label(ids[j]), d.Plan.Count(), d.Plan.IDs())
		}
	}
	if r.inj != nil {
		fmt.Printf("lcofl %s: chaos spec %q active on session s0\n", r.cmd, r.inj.Spec().String())
	}

	var serving parallel.Group
	if !r.local {
		serving.Go(func() error { return fleet.Serve(ln) })
	} else {
		// The fleet closes its listener once every session completes; held
		// open until the vehicles return, it answers a vehicle that redials
		// a finished session with Finished instead of a refused dial.
		serving.Go(func() error { return fleet.Serve(heldOpen{ln}) })
		if err := runFleetScenario(fabricDialer(ln), clients, r.inj, r.retries, ob); err != nil {
			_ = fleet.Close()
			_ = ln.Close()
			_ = serving.Wait() // the vehicles' error comes first
			return nil, err
		}
		_ = ln.Close()
	}
	if err := serving.Wait(); err != nil {
		return nil, err
	}

	st := fleet.Status()
	fmt.Printf("lcofl %s: admission ledger: %d admitted, %d rejected, %d queued, %d live at exit\n",
		r.cmd, st.Admitted, st.Rejected, st.QueuedTotal, st.Live)
	if st.Live != 0 || st.Committed != 0 {
		return nil, fmt.Errorf("%s: fleet not drained: live=%d committed=%d", r.cmd, st.Live, st.Committed)
	}
	results := fleet.Results()
	for j, id := range ids {
		res := results[id]
		if res.Err != nil {
			return results, fmt.Errorf("session %s: %w", id, res.Err)
		}
		rep := res.Report
		fmt.Printf("lcofl %s: %scompleted %d rounds, flagged %v, stragglers %d\n",
			r.cmd, label(id), rep.Rounds, rep.SuspectedMalicious, rep.Stragglers)
		acc, err := fl.ModelAccuracy(res.Shared, deps[j].Test.Samples)
		if err != nil {
			return results, err
		}
		fmt.Printf("lcofl %s: %sfinal shared-model test accuracy %.3f\n", r.cmd, label(id), acc)
		if r.checkpoint != "" {
			data, err := json.MarshalIndent(res.Shared.Snapshot(), "", "  ")
			if err != nil {
				return results, err
			}
			if err := os.WriteFile(r.checkpoint, data, 0o644); err != nil {
				return results, err
			}
			fmt.Printf("lcofl %s: wrote model checkpoint to %s\n", r.cmd, r.checkpoint)
		}
		fmt.Printf("lcofl %s: %s%s\n", r.cmd, label(id), verdictTotals(rep))
	}
	return results, nil
}

// heldOpen is a listener whose Close is left to its owner.
type heldOpen struct{ transport.Listener }

func (heldOpen) Close() error { return nil }

// fabricDialer returns the dial function matching a listener: the pipe
// fabric's own Dial for in-memory runs, a TCP dial to the bound address
// otherwise.
func fabricDialer(ln transport.Listener) func() (transport.Conn, error) {
	if fab, ok := ln.(*transport.PipeFabric); ok {
		return fab.Dial
	}
	addr := ln.Addr()
	return func() (transport.Conn, error) { return transport.DialTCP(addr) }
}

// cmdSoak runs the fleet-scale soak in one process: many concurrent
// sessions behind one listener (in-memory pipes by default, TCP loopback
// with -tcp), session s0 optionally under a -chaos fault schedule. This
// is what the CI soak-smoke gate drives; tracereport -check-metrics then
// cross-checks the admission ledger.
func cmdSoak(args []string) (retErr error) {
	fs := flag.NewFlagSet("soak", flag.ExitOnError)
	sessions := fs.Int("sessions", 3, "concurrent sessions")
	vehicles := fs.Int("vehicles", 12, "vehicles per session")
	rounds := fs.Int("rounds", 2, "global rounds per session")
	seed := fs.Int64("seed", 1, "master scenario seed")
	maxConns := fs.Int("max-conns", 0, "global connection budget, reserved in session-sized chunks (0 = unlimited)")
	queueDepth := fs.Int("queue-depth", 0, "handshaked connections parked when the budget is exhausted (0 = reject with a retry hint)")
	useTCP := fs.Bool("tcp", false, "run over TCP loopback sockets instead of in-memory pipes")
	timeout := fs.Duration("timeout", 60*time.Second, "per-round upload deadline")
	retries := fs.Int("retries", 8, "per-vehicle consecutive failed connection attempts before giving up")
	buildChaos := addChaosFlag(fs)
	observe := addObsFlags(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ob, dbg, closeObs, err := observe()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeObs(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	inj, err := buildChaos(ob)
	if err != nil {
		return err
	}
	r := fleetRun{
		cmd: "soak", sessions: *sessions, vehicles: *vehicles, rounds: *rounds, seed: *seed,
		timeout: *timeout, maxConns: *maxConns, queueDepth: *queueDepth,
		local: true, inj: inj, retries: *retries,
	}
	if *useTCP {
		r.addr = "127.0.0.1:0"
	}
	_, err = r.run(ob, dbg)
	return err
}
