package node

import (
	"sync"
	"testing"

	"repro/internal/chaos"
)

// The pipeline benchmark pair measures end-to-end session latency under
// a seeded straggler distribution: a 10-vehicle fleet (K = 8) where the
// last two vehicles sleep 40 ms before every upload (chaos delay faults
// on a real sleeper). The lock-step engine waits for the full fleet each
// round, so every round pays the straggler tail; the pipelined engine
// with WaitBudget=-1 closes collection at the recover threshold and the
// tail overlaps the next round. Run the pair by hand (go test -bench
// Round ./internal/node); the gated measurement of the budget close is
// the straggle-v32-budget workload of go run ./benchmark.

const (
	benchVehicles  = 10 // K = 8, so the budget excludes exactly the 2 stragglers
	benchRounds    = 6
	benchDelaySpec = "seed=1;delay.upload@8=1:40ms;delay.upload@9=1:40ms"
)

func benchSession(b *testing.B, lockstep bool) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := buildSessionFull(b, benchVehicles, benchRounds, 0, nil, 0)
		s.server.cfg.DisablePipeline = lockstep
		s.server.cfg.WaitBudget = -1 // ignored by the lock-step engine
		// Default Options: chaos delays run on the real sleeper.
		inj := chaos.New(mustChaosSpec(b, benchDelaySpec), chaos.Options{})
		b.StartTimer()

		var wg sync.WaitGroup
		for v := range s.clients {
			wg.Add(1)
			go func(v int) {
				defer wg.Done()
				if err := RunVehicle(inj.Wrap(v, s.vconns[v]), s.clients[v]); err != nil {
					b.Errorf("vehicle %d: %v", v, err)
				}
			}(v)
		}
		report, err := s.server.Run(s.conns)
		if err != nil {
			b.Fatal(err)
		}
		wg.Wait()
		if report.Rounds != benchRounds {
			b.Fatalf("rounds = %d, want %d", report.Rounds, benchRounds)
		}
	}
}

func BenchmarkRoundPipelined(b *testing.B) { benchSession(b, false) }

func BenchmarkRoundLockstep(b *testing.B) { benchSession(b, true) }
