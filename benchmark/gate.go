package main

import (
	"fmt"
	"math"
	"slices"
)

// constantMSE is the held-out error of answering 0.5 to everything; the
// labels are 0 or 1.
const constantMSE = 0.25

// gateResult is the correctness verdict over one workload's sessions.
type gateResult struct {
	failures  []string
	attempted int // rounds configured, warm-up included
	failed    int // degraded or never-run rounds
	digest    string
}

func (g *gateResult) ok() bool { return len(g.failures) == 0 }

func (g *gateResult) failf(format string, args ...any) {
	g.failures = append(g.failures, fmt.Sprintf(format, args...))
}

// gate checks that every session of one workload produced the right
// outputs. Sessions of equal length ran the same inputs, so on all-arrive
// workloads their final parameters must be bit-identical; on the
// straggler workload the admitted set could in principle differ once, so
// test_mse may deviate in at most one session of a length.
func gate(w workload, sessions []*sessionResult) *gateResult {
	g := &gateResult{}
	byLength := map[int][]*sessionResult{}
	for i, s := range sessions {
		rep := s.report
		want := warmupRounds + s.rounds
		g.attempted += want
		g.failed += rep.DegradedRounds + max(0, want-rep.Rounds)
		if s.vehicleErr != nil {
			g.failf("session %d: vehicle failed: %v", i, s.vehicleErr)
		}
		if rep.Rounds != want {
			g.failf("session %d: completed %d rounds, configured %d", i, rep.Rounds, want)
		}
		if rep.DegradedRounds != 0 || rep.RecvErrors != 0 || rep.CorruptFrames != 0 {
			g.failf("session %d: degraded=%d recv_errors=%d corrupt_frames=%d, want all 0",
				i, rep.DegradedRounds, rep.RecvErrors, rep.CorruptFrames)
		}
		if !slices.Equal(rep.SuspectedMalicious, s.in.planted) {
			g.failf("session %d: flagged vehicles %v, planted %v", i, rep.SuspectedMalicious, s.in.planted)
		}
		// A random initialisation can by luck already sit below
		// constantMSE, about where the two workloads that barely train
		// settle; the bar is then the constant answer's error.
		if bar := max(s.untrainedMSE, constantMSE); !(s.testMSE < bar) {
			g.failf("session %d: test_mse %.6g not below %.6g (untrained model %.6g, constant answer %.6g)",
				i, s.testMSE, bar, s.untrainedMSE, constantMSE)
		}
		byLength[s.rounds] = append(byLength[s.rounds], s)
	}
	for rounds, group := range byLength {
		if rounds == sessions[0].rounds {
			g.digest = group[0].paramsDigest
		}
		if w.allArrive {
			for _, s := range group[1:] {
				if s.paramsDigest != group[0].paramsDigest {
					g.failf("%d-round sessions: params_digest %s vs %s", rounds, s.paramsDigest, group[0].paramsDigest)
				}
			}
			continue
		}
		best := 0
		for _, a := range group {
			agree := 0
			for _, b := range group {
				if math.Abs(a.testMSE-b.testMSE) <= 1e-9 {
					agree++
				}
			}
			best = max(best, agree)
		}
		if best < len(group)-1 {
			g.failf("%d-round sessions: test_mse agrees in only %d of %d", rounds, best, len(group))
		}
	}
	return g
}
