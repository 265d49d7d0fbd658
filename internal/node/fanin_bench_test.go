package node

import (
	"sync"
	"testing"

	"repro/internal/transport"
)

// The fleet fan-in benchmark pair measures end-to-end session latency
// for one 16-vehicle session under the two upload topologies:
//
//	mode=flat  — every vehicle holds its own direct leg to the fusion
//	             centre.
//	mode=relay — vehicles dial two edge relays that forward every frame
//	             as-is, paying the extra hop.
//
// Run it by hand (go test -bench FleetFanIn ./internal/node); it is the
// only flat/relay measurement until go run ./benchmark gains a fan-in
// workload (ROADMAP 1(d)).
const (
	fanInVehicles = 16
	fanInRounds   = 2
	fanInShards   = 2
)

func benchFanIn(b *testing.B, shards int) {
	cfgs, clients := soakScenario(b, []string{"s0"}, fanInVehicles, fanInRounds, 1)
	cfg, cc := cfgs["s0"], clients["s0"]
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := NewServer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ufab := transport.NewPipeFabric(fanInVehicles)
		var relays []*Relay
		var dials []func() (transport.Conn, error)
		serveErr := make(chan error, shards)
		for k := 0; k < shards; k++ {
			rfab := transport.NewPipeFabric(0)
			relay, err := NewRelay(rfab, ufab.Dial)
			if err != nil {
				b.Fatal(err)
			}
			relays = append(relays, relay)
			go func() { serveErr <- relay.Serve() }()
			dials = append(dials, rfab.Dial)
		}
		b.StartTimer()

		var wg sync.WaitGroup
		for v := range cc {
			wg.Add(1)
			go func(v int) {
				defer wg.Done()
				dial := ufab.Dial
				if shards > 0 {
					dial = dials[v%shards]
				}
				conn, err := dial()
				if err != nil {
					b.Errorf("vehicle %d dial: %v", v, err)
					return
				}
				defer conn.Close()
				if err := RunVehicle(conn, cc[v]); err != nil {
					b.Errorf("vehicle %d: %v", v, err)
				}
			}(v)
		}
		conns := make([]transport.Conn, fanInVehicles)
		for v := range conns {
			c, err := ufab.Accept()
			if err != nil {
				b.Fatal(err)
			}
			conns[v] = c
		}
		report, err := srv.Run(conns)
		if err != nil {
			b.Fatal(err)
		}
		wg.Wait()

		b.StopTimer()
		for _, r := range relays {
			_ = r.Close()
		}
		for range relays {
			if err := <-serveErr; err != nil {
				b.Fatal(err)
			}
		}
		_ = ufab.Close()
		if report.Rounds != fanInRounds {
			b.Fatalf("rounds = %d, want %d", report.Rounds, fanInRounds)
		}
		b.StartTimer()
	}
}

func BenchmarkFleetFanIn(b *testing.B) {
	b.Run("mode=flat", func(b *testing.B) { benchFanIn(b, 0) })
	b.Run("mode=relay", func(b *testing.B) { benchFanIn(b, fanInShards) })
}
