package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// attackRound is the shape of the attack tests: V = 60, M = 16, degree 2,
// so K = 31 and E = 14, over S = 2 verification slots. It returns the
// scheme and one round of uploads from heterogeneous local models, so the
// order a mean sums them in shows in its bits.
func attackRound(t *testing.T) (*Scheme, [][]float64) {
	t.Helper()
	const v, m, degree = 60, 16, 2
	s, err := NewScheme(refFeatures(t, m*2), SchemeConfig{NumVehicles: v, NumBatches: m, Degree: degree, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if s.RecoverThreshold() != 31 || s.MaxMalicious() != 14 {
		t.Fatalf("K = %d, E = %d; want 31, 14", s.RecoverThreshold(), s.MaxMalicious())
	}
	shared := polyActivationModel(t, degree, 61)
	locals := heterogeneousLocals(t, shared, v, rand.New(rand.NewSource(62)))
	return s, roundUploads(t, s, shared, locals)
}

// cloneUploads returns a deep copy of a round's rows.
func cloneUploads(ups [][]float64) [][]float64 {
	out := make([][]float64, len(ups))
	for i, up := range ups {
		out[i] = slices.Clone(up)
	}
	return out
}

// meanWithout is the mean of the learning channel over every present
// vehicle not in excluded, summed in ascending vehicle ID.
func meanWithout(s *Scheme, ups [][]float64, excluded func(int) bool) []float64 {
	offset := 2 * s.Slots()
	out := make([]float64, len(s.refX))
	for j := range out {
		n := 0
		for i, up := range ups {
			if up != nil && !excluded(i) {
				out[j] += up[offset+j]
				n++
			}
		}
		out[j] /= float64(n)
	}
	return out
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestSkipAttack: the first s vehicles send NaN as every verification half
// and 1.0 as every learning estimate. A NaN half is a wrong symbol, so the
// outcome follows the decoder's bands:
//   - s ≤ E: every skipper is located and the targets are the honest-only
//     mean, bit for bit;
//   - E < s < V−E: no slot decodes and the round falls back to the median.
//
// For s ≥ V−E the skippers' identical marker symbol is a constant
// codeword that agrees with all of them, so it decodes and the honest
// vehicles are the ones located. Colluders who agree on a codeword are
// the unique-decoding limit of ROADMAP item 2, not a skipped
// verification, and that band is left to item 2.
func TestSkipAttack(t *testing.T) {
	s, honest := attackRound(t)
	v, e, offset := s.cfg.NumVehicles, s.MaxMalicious(), 2*s.Slots()
	for skippers := 1; skippers < v-e; skippers++ {
		ups := cloneUploads(honest)
		for i := 0; i < skippers; i++ {
			for j := range ups[i] {
				if j < offset {
					ups[i][j] = math.NaN()
				} else {
					ups[i][j] = 1
				}
			}
		}
		targets := assertAggregateEquivalent(t, s, ups)
		if skippers > e {
			if s.DecodeFailures != s.Slots() {
				t.Fatalf("%d skippers: %d of %d slots undecodable, want all", skippers, s.DecodeFailures, s.Slots())
			}
			continue
		}
		if s.DecodeFailures != 0 {
			t.Fatalf("%d skippers: %d decode failures", skippers, s.DecodeFailures)
		}
		want := make([]int, skippers)
		for i := range want {
			want[i] = i
		}
		if got := s.SuspectedMalicious(); !slices.Equal(got, want) {
			t.Fatalf("%d skippers: flagged %v, want %v", skippers, got, want)
		}
		if honestMean := meanWithout(s, ups, func(i int) bool { return i < skippers }); !sameBits(targets, honestMean) {
			t.Fatalf("%d skippers: targets %v, honest-only mean %v", skippers, targets, honestMean)
		}
	}
}

// TestRangeAttack: a vehicle whose verification channel is honest sends
// one learning value outside [0, 1]. It is excluded and counted once in
// DetectedMalicious, and the targets are the mean of the others, bit for
// bit. The ends of the range, and −0, are estimates like any other.
func TestRangeAttack(t *testing.T) {
	s, honest := attackRound(t)
	const liar, sample = 7, 5
	offset := 2 * s.Slots()
	for _, x := range []float64{math.Inf(1), math.Inf(-1), 1e300, math.NaN(), -0.1, 1.1, 0, 1, math.Copysign(0, -1)} {
		ups := cloneUploads(honest)
		ups[liar][offset+sample] = x
		targets := assertAggregateEquivalent(t, s, ups)
		out := !(x >= 0 && x <= 1)
		if s.DecodeFailures != 0 {
			t.Fatalf("%v: %d decode failures", x, s.DecodeFailures)
		}
		var want []int
		if out {
			want = []int{liar}
		}
		if got := s.SuspectedMalicious(); !slices.Equal(got, want) || s.DetectedMalicious[liar] != len(want) {
			t.Fatalf("%v: flagged %v (count %d), want %v", x, got, s.DetectedMalicious[liar], want)
		}
		mean := meanWithout(s, ups, func(i int) bool { return out && i == liar })
		if !sameBits(targets, mean) {
			t.Fatalf("%v: targets %v, want %v", x, targets, mean)
		}
	}
}

// FuzzHostileUpload gives one vehicle an upload of arbitrary float64 bits,
// as many leading values as the input holds (the rest stay honest), next
// to one wholesale liar. Aggregate must neither panic nor fail, and must
// agree with perSlotReference on the targets, bit for bit, on the
// per-vehicle verdict and on DecodeFailures.
func FuzzHostileUpload(f *testing.F) {
	const v, m, degree = 16, 4, 1 // K = 4, E = 6; S = 2, 12 values an upload
	bits := func(xs ...uint64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], x)
		}
		return b
	}
	f64 := math.Float64bits
	f.Add(uint8(3), bits(0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001, 0xfff0000000000001))
	f.Add(uint8(0), bits(f64(math.Inf(1)), f64(math.Inf(-1)), f64(math.Inf(1)), f64(math.Inf(-1)), f64(math.Inf(1))))
	f.Add(uint8(9), bits(0x8000000000000000, 0x8000000000000000, 0x8000000000000000, 0x8000000000000000, 0x8000000000000000))
	f.Add(uint8(5), bits(1, 0x000fffffffffffff, 1, 0x000fffffffffffff, 1, 0x000fffffffffffff))
	f.Add(uint8(15), bits(f64(1e300), f64(-1e300), f64(1e300), f64(-1e300), f64(1e300), f64(1e300)))
	f.Add(uint8(2), bits(f64(0x5a5a5a5a), f64(0x5a5a5a5a), f64(0x5a5a5a5a), f64(0x5a5a5a5a)))
	f.Add(uint8(7), bits(0x7ff8000000000000, f64(0x5a5a5a5a), 0x7ff8000000000000, f64(0x5a5a5a5a)))
	f.Add(uint8(1), []byte{})

	setProcs(f, 1)
	s, err := NewScheme(refFeatures(f, m*2), SchemeConfig{NumVehicles: v, NumBatches: m, Degree: degree, Seed: 4})
	if err != nil {
		f.Fatal(err)
	}
	model := polyActivationModel(f, degree, 8)
	if err := s.BeginRound(model); err != nil {
		f.Fatal(err)
	}
	honest := make([][]float64, v)
	for i := range honest {
		if honest[i], err = s.Upload(i, model); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, vehicle uint8, raw []byte) {
		ups := cloneUploads(honest)
		hostile := ups[int(vehicle)%v]
		for i := 0; i < len(hostile) && 8*i+8 <= len(raw); i++ {
			hostile[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		lieWholesale(ups, []int{(int(vehicle) + 1) % v})
		assertAggregateEquivalent(t, s, ups)
	})
}
