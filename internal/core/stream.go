package core

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/fl"
	"repro/internal/reedsolomon"
)

// Streaming aggregation (DESIGN.md §14).
//
// Every round is decoded once, through a RoundIngest. The pipelined round
// engine hands the scheme each upload as it arrives, and the scheme feeds
// the verification symbols into an incremental Reed–Solomon decoder, so
// the interpolation work is already paid when the collection window
// closes; AggregateStreamed then finishes the round on that state.
// Aggregate ingests the rows itself, in vehicle-ID order, and finishes
// the same way. The decoder's result does not depend on arrival order
// (reedsolomon/incremental.go), so AggregateStreamed(sink, uploads) ==
// Aggregate(uploads) bit for bit, always.
//
// An upload is whole or absent: a nil row is a vehicle the round did not
// hear from, and every value of a present row is taken as sent. A NaN or
// an infinity in a verification half is a wrong symbol like any other
// (floatsToSymbol), which the decoder locates; in the learning channel it
// breaks the range rule Add checks.
//
// Vehicles the previous Aggregate flagged are ingested last, whatever
// their arrival order: the decoder's candidate is interpolated from its
// first K arrivals, and a persistent liar kept out of them is a mere
// mismatch of an accepted candidate instead of the reason every slot is
// rejected and its errors located again. The reordering cannot change an
// aggregate.

// RoundIngest absorbs one round's uploads incrementally. It implements
// fl.UploadSink; get it from Scheme.BeginIngest and consume it with
// Scheme.AggregateStreamed. A scheme keeps one and resets it every round,
// decoder included, so a round's ingest allocates nothing. Not safe for
// concurrent use.
type RoundIngest struct {
	s       *Scheme
	inc     *reedsolomon.IncrementalDecoder
	present []bool // ingested vehicles
	count   int
	syms    []field.Element // per-Add scratch, one symbol per slot
	// outOfRange lists the ingested vehicles with a learning value outside
	// [0, 1].
	outOfRange []int
	// suspect aliases the scheme's DetectedMalicious, which holds the
	// previous Aggregate's counts until this round's Aggregate rewrites
	// it — after every Add, since the sink is handed over with that call.
	// It only orders the ingest, so even a stale read could not change a
	// result. deferred holds, in arrival order, the flagged vehicles'
	// uploads until flush.
	suspect  []int
	deferred []deferredUpload
}

type deferredUpload struct {
	id  int
	row []float64
}

// BeginIngest starts a round's incremental ingest: it resets and returns
// the scheme's one sink, which invalidates the previous round's sink and
// the decode results it produced. Feed it via Add and hand it back
// through AggregateStreamed.
func (s *Scheme) BeginIngest() fl.UploadSink { return s.beginIngest() }

func (s *Scheme) beginIngest() *RoundIngest {
	r := s.ingest
	if r == nil {
		r = &RoundIngest{
			s:       s,
			inc:     s.dec.NewIncremental(s.slots),
			present: make([]bool, s.cfg.NumVehicles),
			syms:    make([]field.Element, s.slots),
		}
		s.ingest = r
	} else {
		r.inc.Reset()
		clear(r.present)
		r.count = 0
		r.outOfRange = r.outOfRange[:0]
		clear(r.deferred) // hold no row of the last round
		r.deferred = r.deferred[:0]
	}
	r.suspect = s.DetectedMalicious
	return r
}

// Add implements fl.UploadSink. It checks the upload's learning channel
// against the range rule and streams its verification channel into the
// incremental decoder.
func (r *RoundIngest) Add(vehicleID int, upload []float64) error {
	s := r.s
	if vehicleID < 0 || vehicleID >= s.cfg.NumVehicles {
		return fmt.Errorf("core: ingest vehicle ID %d outside [0, %d)", vehicleID, s.cfg.NumVehicles)
	}
	if upload == nil {
		return nil
	}
	if len(upload) != s.UploadLen() {
		return fmt.Errorf("core: ingest vehicle %d uploaded %d values, want %d", vehicleID, len(upload), s.UploadLen())
	}
	if r.present[vehicleID] {
		return fmt.Errorf("core: vehicle %d ingested twice", vehicleID)
	}
	for _, v := range upload[2*s.slots:] {
		if !(v >= 0 && v <= 1) { // NaN too
			r.outOfRange = append(r.outOfRange, vehicleID)
			break
		}
	}
	if len(r.suspect) > 0 && r.suspect[vehicleID] > 0 {
		r.deferred = append(r.deferred, deferredUpload{vehicleID, upload})
	} else if err := r.ingest(vehicleID, upload); err != nil {
		return err
	}
	r.present[vehicleID] = true
	r.count++
	return nil
}

// ingest streams one validated upload's verification symbols into the
// decoder. The decoder's points are coder.Points(), indexed by vehicle
// ID, so the ingest position IS the vehicle ID (and error positions come
// back in vehicle-ID space).
func (r *RoundIngest) ingest(vehicleID int, upload []float64) error {
	for j := range r.syms {
		r.syms[j] = floatsToSymbol(upload[2*j], upload[2*j+1])
	}
	return r.inc.Ingest(vehicleID, r.syms)
}

// flush ingests the deferred uploads, after everyone else's, and forgets
// them, so finishing the same round twice finalizes the same words. Add
// already validated them, so a failure is a bug.
func (r *RoundIngest) flush() error {
	for _, d := range r.deferred {
		if err := r.ingest(d.id, d.row); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	clear(r.deferred)
	r.deferred = r.deferred[:0]
	return nil
}

// holds reports whether the ingested vehicles are exactly the non-nil
// rows of uploads.
func (r *RoundIngest) holds(uploads [][]float64) bool {
	n := 0
	for i, up := range uploads {
		if up != nil {
			if !r.present[i] {
				return false
			}
			n++
		}
	}
	return n == r.count
}

// AggregateStreamed is Aggregate for a round whose uploads were streamed
// into sink: the round is finished on the streamed state when sink is
// this scheme's and holds exactly the present rows, and aggregated afresh
// otherwise. Results are bit-identical to Aggregate(uploads) for any
// arrival order, and live in the same buffer, valid until the scheme's
// next aggregation.
func (s *Scheme) AggregateStreamed(sink fl.UploadSink, uploads [][]float64) ([]float64, error) {
	if err := s.checkUploads(uploads); err != nil {
		return nil, err
	}
	if r, ok := sink.(*RoundIngest); ok && r.s == s && r.holds(uploads) {
		return s.finish(r, uploads, s.obs.Now())
	}
	return s.aggregate(uploads)
}
