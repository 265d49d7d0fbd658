package node

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// shareSetup is a Setup for a V-vehicle scheme with everything else
// fixed: M = 8 batches of S = 32 slots over 16 features.
func shareSetup(vehicles int) *protocol.Setup {
	rng := rand.New(rand.NewSource(4))
	refX := make([][]float64, 8*32)
	for i := range refX {
		refX[i] = make([]float64, 16)
		for j := range refX[i] {
			refX[i][j] = 2*rng.Float64() - 1
		}
	}
	return &protocol.Setup{
		InputSize: 16, LocalEpochs: 1, LocalRate: 0.1, ActivationCoeffs: []float64{0, 0.25},
		RefX: refX, SchemeVehicles: vehicles, SchemeBatches: 8, SchemeDegree: 1, SchemeSeed: 11,
		WireVersion: protocol.Version,
	}
}

func shareSession(t *testing.T, id int) *vehicleSession {
	t.Helper()
	sess, err := newVehicleSession(ClientConfig{VehicleID: id, Data: []nn.Sample{{X: make([]float64, 16)}}, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestInstallRefusesInconsistentSetup: a Setup whose model width is not
// the reference set's, or whose scheme has no point for this vehicle,
// fails at install — before the first broadcast — and leaves the session
// uninstalled.
func TestInstallRefusesInconsistentSetup(t *testing.T) {
	for name, tc := range map[string]struct {
		id     int
		mutate func(*protocol.Setup)
		want   string
	}{
		"input size":       {0, func(s *protocol.Setup) { s.InputSize = 15 }, "input size 15"},
		"id past scheme":   {64, func(*protocol.Setup) {}, "vehicle ID 64 outside [0, 64)"},
		"K above V":        {0, func(s *protocol.Setup) { s.SchemeVehicles = 4 }, "recover threshold"},
		"no reference":     {0, func(s *protocol.Setup) { s.RefX = nil }, "reference size 0"},
		"ragged":           {0, func(s *protocol.Setup) { s.RefX[3] = s.RefX[3][:5] }, "reference sample 3"},
		"batches mismatch": {0, func(s *protocol.Setup) { s.SchemeBatches = 7 }, "not a positive multiple"},
	} {
		setup := shareSetup(64)
		tc.mutate(setup)
		sess := shareSession(t, tc.id)
		err := sess.install(setup)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: install returned %v, want an error naming %q", name, err, tc.want)
		}
		if sess.local != nil || sess.share != nil {
			t.Errorf("%s: refused Setup left the session installed", name)
		}
	}
}

// TestSetupWithoutActivationRefused: a Setup with fewer than the two
// activation coefficients NewServer requires comes only from a broken or
// hostile peer. The vehicle refuses it with a permanent error naming the
// count, rather than train a model other than the one the verification
// channel evaluates.
func TestSetupWithoutActivationRefused(t *testing.T) {
	for _, coeffs := range [][]float64{nil, {0.25}} {
		setup := shareSetup(64)
		setup.ActivationCoeffs = coeffs
		fusion, vehicle := transport.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer fusion.Close()
			if m, err := fusion.Recv(); err != nil || m.Hello == nil {
				t.Errorf("expected hello: %+v, %v", m, err)
				return
			}
			if err := fusion.Send(&protocol.Message{Setup: setup}); err != nil {
				t.Errorf("send setup: %v", err)
			}
		}()
		err := RunVehicle(vehicle, ClientConfig{VehicleID: 0, Data: []nn.Sample{{X: make([]float64, 16)}}, Seed: 1})
		<-done
		want := fmt.Sprintf("%d activation coefficients", len(coeffs))
		if err == nil || !strings.Contains(err.Error(), want) || IsTransient(err) {
			t.Errorf("%d coefficients: RunVehicle returned %v, want a permanent error naming %q", len(coeffs), err, want)
		}
	}
}

// TestVehicleHeapIndependentOfFleetSize is ROADMAP item 3's memory
// criterion: with S, M and the feature count fixed, what a vehicle keeps
// after Setup does not grow with V. Installing the whole scheme, as
// vehicles once did, kept V·S·F field elements and grew about 16× from
// V = 64 to V = 1024.
func TestVehicleHeapIndependentOfFleetSize(t *testing.T) {
	const sessions = 4
	retained := func(vehicles int) uint64 {
		setup := shareSetup(vehicles)
		held := make([]*vehicleSession, sessions)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range held {
			held[i] = shareSession(t, vehicles-1-i)
			if err := held[i].install(setup); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(held)
		runtime.KeepAlive(setup)
		if after.HeapAlloc < before.HeapAlloc {
			return 0
		}
		return (after.HeapAlloc - before.HeapAlloc) / sessions
	}
	retained(64) // first use of the package's lazily built state
	small, large := retained(64), retained(1024)
	t.Logf("a vehicle retains %d bytes after Setup at V=64, %d at V=1024", small, large)
	if small == 0 || float64(large) > 1.1*float64(small) || float64(large) < 0.9*float64(small) {
		t.Errorf("a vehicle retains %d bytes at V=1024 against %d at V=64, want within 10%%", large, small)
	}
}
