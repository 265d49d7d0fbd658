// Distributed deployment: the fusion centre and the vehicles as separate
// processes (here goroutines) talking the wire protocol over real TCP.
//
// Twenty vehicles connect to the fusion centre on a loopback port; a
// fifth of them are malicious. Each side holds only its own state —
// vehicles never see each other's data, the fusion centre never sees any
// dataset — and the verification channel identifies the liars across the
// network. The session is an experiments.Scenario deployed to the round
// engine, so it ends exactly where that Scenario's simulation run ends.
// The program exits non-zero unless the flagged vehicles are exactly the
// planted ones.
//
// Run: go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"slices"

	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/node"
	"repro/internal/parallel"
	"repro/internal/transport"
)

func main() {
	d, err := experiments.Scenario{
		Vehicles:          20,
		Rounds:            8,
		Rows:              2000,
		Batches:           8,
		MaliciousFraction: 0.2,
		Seed:              30,
	}.Deploy()
	if err != nil {
		log.Fatal(err)
	}
	planted := d.Plan.IDs()
	slices.Sort(planted)

	server, err := node.NewServer(d.Server)
	if err != nil {
		log.Fatal(err)
	}

	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	fmt.Printf("fusion centre listening on %s\n", l.Addr())

	// The planted vehicles lie about everything (their ClientConfig carries
	// the Corrupt behaviour). One goroutine per vehicle via parallel.Group,
	// so a vehicle panic surfaces in main instead of killing the process
	// from an anonymous goroutine.
	var vg parallel.Group
	for _, cfg := range d.Clients {
		vg.Go(func() error {
			conn, err := transport.DialTCP(l.Addr())
			if err != nil {
				log.Printf("vehicle %d: %v", cfg.VehicleID, err)
				return nil
			}
			defer conn.Close()
			if err := node.RunVehicle(conn, cfg); err != nil {
				log.Printf("vehicle %d: %v", cfg.VehicleID, err)
			}
			return nil
		})
	}

	conns := make([]transport.Conn, 0, len(d.Clients))
	for len(conns) < len(d.Clients) {
		c, err := l.Accept()
		if err != nil {
			log.Fatal(err)
		}
		conns = append(conns, c)
	}
	report, err := server.Run(conns)
	if err != nil {
		log.Fatal(err)
	}
	if err := vg.Wait(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("completed %d rounds over TCP\n", report.Rounds)
	fmt.Printf("verification channel flagged vehicles: %v (planted: %v)\n", report.SuspectedMalicious, planted)
	acc, err := fl.ModelAccuracy(server.Shared(), d.Test.Samples)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final shared-model test accuracy: %.3f\n", acc)
	if !slices.Equal(report.SuspectedMalicious, planted) {
		log.Fatalf("flagged %v, want the planted %v", report.SuspectedMalicious, planted)
	}
}
