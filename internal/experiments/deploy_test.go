package experiments

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/channel"
	"repro/internal/fl"
	"repro/internal/node"
	"repro/internal/parallel"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// runDeployed runs d on the round engine, every vehicle over its own
// in-memory pipe, and returns the fusion centre's report.
func runDeployed(t *testing.T, d *Deployment) *node.Report {
	t.Helper()
	srv, err := node.NewServer(d.Server)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]transport.Conn, len(d.Clients))
	var fleet parallel.Group
	for i, cc := range d.Clients {
		serverEnd, vehicleEnd := transport.Pipe()
		conns[i] = serverEnd
		fleet.Go(func() error { return node.RunVehicle(vehicleEnd, cc) })
	}
	rep, err := srv.Run(conns)
	if werr := fleet.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// sameBits reports whether a and b hold bit-identical values.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkDeployMatchesRun runs sc through Run(LCoFL) and through a
// Deploy-built engine session and requires the same final parameters, bit
// for bit, and the same flagged vehicles.
func checkDeployMatchesRun(t *testing.T, name string, sc Scenario) {
	t.Helper()
	sim, err := sc.Run(LCoFL)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	d, err := sc.Deploy()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rep := runDeployed(t, d)
	if rep.Rounds != sc.Rounds || len(rep.FinalParams) == 0 {
		t.Fatalf("%s: engine ran %d rounds, %d params", name, rep.Rounds, len(rep.FinalParams))
	}
	if !sameBits(rep.FinalParams, sim.FinalParams) {
		t.Errorf("%s: engine FinalParams %v, Run %v", name, rep.FinalParams, sim.FinalParams)
	}
	if !slices.Equal(rep.SuspectedMalicious, sim.Flagged) {
		t.Errorf("%s: engine flagged %v, Run %v", name, rep.SuspectedMalicious, sim.Flagged)
	}
}

// TestDeployMatchesRun covers fig5's engine-expressible points — malicious
// fraction {0, 0.3, 0.5} × activation degree {1, 2, 3} — at a reduced
// size: every session Deploy builds ends where Run(LCoFL) ends.
func TestDeployMatchesRun(t *testing.T) {
	for _, degree := range []int{1, 2, 3} {
		for _, frac := range []float64{0, 0.3, 0.5} {
			sc := Scenario{Vehicles: 16, Rounds: 5, Rows: 1000, Batches: 4,
				Degree: degree, MaliciousFraction: frac, Seed: 11}
			checkDeployMatchesRun(t, fmt.Sprintf("degree %d, %g malicious", degree, frac), sc)
		}
	}
}

// TestDeployContract pins what Deploy promises besides the bit-identical
// session: a scenario the engine cannot express is refused, a non-IID
// scenario deploys with the partitions Run trains on, and every vehicle
// carries the seed fl.System gives it.
func TestDeployContract(t *testing.T) {
	base := Scenario{Vehicles: 8, Rounds: 2, Rows: 400, Batches: 4, Seed: 3}
	withChannel, withMobility := base, base
	withChannel.Channel = channel.Perfect{}
	withMobility.Mobility = true
	for name, sc := range map[string]Scenario{"channel": withChannel, "mobility": withMobility} {
		if _, err := sc.Deploy(); err == nil {
			t.Errorf("a scenario with a %s deployed", name)
		}
	}

	skewed := base
	skewed.NonIIDSkew = 1
	skewed.MaliciousFraction = 0.25
	d, err := skewed.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := traffic.Generate(traffic.GenConfig{Rows: base.Rows, Seed: base.Seed})
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := ds.Split(0.8, base.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := train.PartitionNonIID(base.Vehicles, skewed.NonIIDSkew, base.Seed+3)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Clients) != base.Vehicles {
		t.Fatalf("%d clients, want %d", len(d.Clients), base.Vehicles)
	}
	if d.Plan == nil || d.Plan.Count() != 2 {
		t.Fatalf("plan %v, want 2 liars of 8", d.Plan)
	}
	for i, c := range d.Clients {
		if c.VehicleID != i || !reflect.DeepEqual(c.Data, parts[i]) {
			t.Errorf("client %d: ID %d, data not the non-IID partition", i, c.VehicleID)
		}
		if want := fl.VehicleSeed(d.Server.FL.Seed, i); c.Seed != want {
			t.Errorf("client %d: seed %d, want %d", i, c.Seed, want)
		}
		if (c.Corrupt != nil) != d.Plan.IsMalicious(i) {
			t.Errorf("client %d: corrupts %v, planted %v", i, c.Corrupt != nil, d.Plan.IsMalicious(i))
		}
	}
	checkDeployMatchesRun(t, "non-IID", skewed)
}
