// Fleet-mode helpers shared by the soak and serve commands: deterministic
// multi-session scenario derivation (both sides of a TCP deployment
// rebuild it from the master seed alone) and the in-process vehicle
// driver. See DESIGN.md §16.
package main

import (
	"flag"
	"fmt"
	"sort"
	"time"

	"repro/internal/chaos"
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

// buildFleetScenario derives one independent, deterministic scenario per
// session from the master seed — each session's deploy at its own
// fleetSessionSeed — so a fusion centre and remote vehicles agree without
// exchanging data files.
func buildFleetScenario(sessions, vehicles, rounds, workers int, seed int64, timeout time.Duration, ob *obs.Obs) (map[string]node.ServerConfig, map[string][]node.ClientConfig, error) {
	if vehicles < 4 {
		return nil, nil, fmt.Errorf("fleet scenario needs at least 4 vehicles per session, got %d", vehicles)
	}
	cfgs := make(map[string]node.ServerConfig, sessions)
	clients := make(map[string][]node.ClientConfig, sessions)
	for j, id := range fleetSessionIDs(sessions) {
		d, err := deploy(vehicles, rounds, fleetSessionSeed(seed, j), 0, workers, ob)
		if err != nil {
			return nil, nil, err
		}
		d.Server.RoundTimeout = timeout
		for i := range d.Clients {
			d.Clients[i].SessionID = id
		}
		cfgs[id] = d.Server
		clients[id] = d.Clients
	}
	return cfgs, clients, nil
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
	workers := fs.Int("workers", 0, "worker-pool size for the decode hot paths (0 = all cores)")
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
	cfgs, clients, err := buildFleetScenario(*sessions, *vehicles, *rounds, *workers, *seed, *timeout, ob)
	if err != nil {
		return err
	}
	fleet, err := node.NewFleet(node.FleetConfig{
		Sessions:   cfgs,
		MaxConns:   *maxConns,
		QueueDepth: *queueDepth,
		Obs:        ob,
	})
	if err != nil {
		return err
	}
	dbg.SetSessionz(func() any { return fleet.Status() })

	var ln transport.Listener
	if *useTCP {
		if ln, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
			return err
		}
	} else {
		ln = transport.NewPipeFabric()
	}
	var serveGroup parallel.Group
	serveGroup.Go(func() error { return fleet.Serve(ln) })
	defer func() {
		// Join the accept loop on every exit path: closing the listener
		// unblocks Serve. On the success path the explicit Wait below has
		// already run; Wait is idempotent and the close is a no-op.
		_ = ln.Close()
		if werr := serveGroup.Wait(); werr != nil && retErr == nil {
			retErr = werr
		}
	}()

	mode := "pipes"
	if *useTCP {
		mode = fmt.Sprintf("tcp %s", ln.Addr())
	}
	fmt.Printf("lcofl soak: %d sessions x %d vehicles x %d rounds over %s\n",
		*sessions, *vehicles, *rounds, mode)
	if inj != nil {
		fmt.Printf("lcofl soak: chaos spec %q active on session s0\n", inj.Spec().String())
	}

	if err := runFleetScenario(fabricDialer(ln), clients, inj, *retries, ob); err != nil {
		return err
	}
	if err := serveGroup.Wait(); err != nil {
		return err
	}
	results := fleet.Results()
	for _, id := range fleetSessionIDs(*sessions) {
		r := results[id]
		if r.Err != nil {
			return fmt.Errorf("session %s: %w", id, r.Err)
		}
		fmt.Printf("lcofl soak: session %s completed %d rounds, flagged %v, stragglers %d, rejoins %d\n",
			id, r.Report.Rounds, r.Report.SuspectedMalicious, r.Report.Stragglers, r.Report.Rejoins)
	}
	st := fleet.Status()
	fmt.Printf("lcofl soak: admission ledger: %d admitted, %d rejected, %d queued, %d live at exit\n",
		st.Admitted, st.Rejected, st.QueuedTotal, st.Live)
	if st.Live != 0 || st.Committed != 0 {
		return fmt.Errorf("soak: fleet not drained: live=%d committed=%d", st.Live, st.Committed)
	}
	return nil
}

// serveFleet is lcofl serve's multi-session mode: every session's
// scenario derived from the master seed (vehicles join with
// -session sN), one TCP listener, admission control and the global
// connection budget in front of the per-session engines.
func serveFleet(addr string, sessions, vehicles, rounds, maxConns, queueDepth int, seed int64, pipeline func(*node.ServerConfig), ob *obs.Obs, dbg *debugz.Server) error {
	cfgs, _, err := buildFleetScenario(sessions, vehicles, rounds, 0, seed, 0, ob)
	if err != nil {
		return err
	}
	for id := range cfgs {
		c := cfgs[id]
		pipeline(&c)
		cfgs[id] = c
	}
	fleet, err := node.NewFleet(node.FleetConfig{
		Sessions:       cfgs,
		DefaultSession: "s0",
		MaxConns:       maxConns,
		QueueDepth:     queueDepth,
		Obs:            ob,
	})
	if err != nil {
		return err
	}
	dbg.SetSessionz(func() any { return fleet.Status() })
	ln, err := transport.ListenTCP(addr)
	if err != nil {
		return err
	}
	fmt.Printf("lcofl serve: fleet of %d sessions x %d vehicles listening on %s\n",
		sessions, vehicles, ln.Addr())
	if err := fleet.Serve(ln); err != nil {
		return err
	}
	results := fleet.Results()
	for _, id := range fleetSessionIDs(sessions) {
		r := results[id]
		if r.Err != nil {
			return fmt.Errorf("session %s: %w", id, r.Err)
		}
		fmt.Printf("lcofl serve: session %s completed %d rounds, flagged %v, stragglers %d, rejoins %d\n",
			id, r.Report.Rounds, r.Report.SuspectedMalicious, r.Report.Stragglers, r.Report.Rejoins)
	}
	st := fleet.Status()
	fmt.Printf("lcofl serve: admission ledger: %d admitted, %d rejected, %d queued\n",
		st.Admitted, st.Rejected, st.QueuedTotal)
	return nil
}

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
