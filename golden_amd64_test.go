package repro

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/node"
	"repro/internal/traffic"
)

// goldenParams is the SHA-256 of the final shared model of the session
// below, parameter by parameter as little-endian IEEE-754 bits. It was
// captured on the commit before the single-layer kernels of DESIGN.md
// §13.5 existed: a change to nn's or core's float arithmetic that moves
// one bit of one round moves this. Update it only with a change that
// means to alter the numbers, and say so in CHANGES.md.
//
// The file is amd64-only: the Go spec lets an implementation fuse x*y+z
// into one rounding, and the arm64, ppc64 and s390x ports do.
const goldenParams = "6c2563b604588c970aaa9bc31ac70a132bc2abdd282962a140f3519d547135a3"

// TestGoldenSessionParams runs a fixed-seed session over pipes — eight
// vehicles, a degree-2 activation, M = 3 (K = 5, E = 1), vehicle 6 lying
// on every scalar, four rounds — and compares the final model with the
// recorded one bit for bit. It is the in-tree form of the benchmark's
// "same-seed params_digest equals the parent's" check.
func TestGoldenSessionParams(t *testing.T) {
	const vehicles, batches, degree, rounds, liar = 8, 3, 2, 4, 6
	coeffs, err := approx.LeastSquares{SamplePoints: 21}.Fit(approx.SymmetricSigmoid().F, -2, 2, degree)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := roundData(t, vehicles*60, 22).PartitionIID(vehicles, 23)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := node.NewServer(node.ServerConfig{
		FL: fl.Config{InputSize: traffic.NumFeatures, LocalEpochs: 3, LocalRate: 0.2,
			DistillEpochs: 20, DistillRate: 0.2, ServerStep: 0.5, Seed: 24},
		Scheme:           core.SchemeConfig{NumVehicles: vehicles, NumBatches: batches, Degree: degree, Seed: 25},
		RefX:             roundData(t, 16*batches, 21).Features(),
		ActivationCoeffs: coeffs,
		Rounds:           rounds,
		RoundTimeout:     30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]node.ClientConfig, vehicles)
	for id := range clients {
		clients[id] = node.ClientConfig{VehicleID: id, Data: parts[id], Seed: int64(200 + id)}
	}
	clients[liar].Corrupt = adversary.SignFlipScale{Scale: 3}
	report := runPipeSession(t, srv, clients, 0)
	if report.Rounds != rounds || report.DegradedRounds != 0 || report.Stragglers != 0 {
		t.Fatalf("session: %+v", report)
	}
	if len(report.SuspectedMalicious) != 1 || report.SuspectedMalicious[0] != liar {
		t.Fatalf("flagged %v, want [%d]", report.SuspectedMalicious, liar)
	}
	b := make([]byte, 0, 8*len(report.FinalParams))
	for _, p := range report.FinalParams {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != goldenParams {
		t.Errorf("final parameters hash to %s, want %s", got, goldenParams)
	}
}
