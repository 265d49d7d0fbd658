package core

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/fl"
	"repro/internal/reedsolomon"
)

// Streaming aggregation (DESIGN.md §14).
//
// The pipelined round engine hands the scheme each upload as it arrives;
// the scheme feeds the verification symbols into an incremental
// Reed–Solomon decoder so the interpolation work is already paid when
// the collection window closes. AggregateStreamed then runs the normal
// Aggregate, except that the one presence group whose vehicle set equals
// the ingested set is finalised from the streamed state instead of
// re-decoded from scratch. The incremental decoder is bit-identical to
// DecodeBatchAt over the same positions (reedsolomon/incremental.go), and
// every group that does not exactly match the ingested set falls back to
// the ordinary batch path, so AggregateStreamed(sink, uploads) ==
// Aggregate(uploads) bit for bit, always.
//
// Vehicles the previous Aggregate flagged are ingested last, whatever
// their arrival order: the decoder's candidate is interpolated from its
// first K arrivals, and a persistent liar kept out of them is a mere
// mismatch of an accepted candidate instead of the reason every slot is
// rejected and its errors located again. The decoder's result does not
// depend on arrival order, so the reordering cannot change an aggregate.

// RoundIngest absorbs one round's uploads incrementally. It implements
// fl.UploadSink; get it from Scheme.BeginIngest and consume it with
// Scheme.AggregateStreamed. A scheme keeps one and resets it every round,
// decoder included, so a round's ingest allocates nothing. Not safe for
// concurrent use.
type RoundIngest struct {
	s       *Scheme
	inc     *reedsolomon.IncrementalDecoder
	present []bool // ingested vehicles (full verification words only)
	count   int
	syms    []field.Element // per-Add scratch, one symbol per slot
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
func (s *Scheme) BeginIngest() fl.UploadSink {
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
		clear(r.deferred) // hold no row of the last round
		r.deferred = r.deferred[:0]
	}
	r.suspect = s.DetectedMalicious
	return r
}

// Add implements fl.UploadSink. It parses the upload's verification
// channel and streams it into the incremental decoder. A vehicle with
// ANY dropped verification half is skipped entirely (per-value drops
// give slots differing vehicle sets, which the grouped batch path
// handles); skipping here only moves that work back to Aggregate, it
// never changes results.
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
	for j := 0; j < s.slots; j++ {
		if fl.IsDropped(upload[2*j]) || fl.IsDropped(upload[2*j+1]) {
			return nil
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

// flush ingests the deferred uploads, after everyone else's. Add already
// validated them, so a failure is a bug; it is reported so the caller
// leaves the streamed state unused rather than finalising a short word.
func (r *RoundIngest) flush() bool {
	for _, d := range r.deferred {
		if r.ingest(d.id, d.row) != nil {
			return false
		}
	}
	return true
}

// matches reports whether the ingested vehicle set equals the given
// strictly-increasing ID list.
func (r *RoundIngest) matches(ids []int) bool {
	if len(ids) != r.count {
		return false
	}
	for _, id := range ids {
		if !r.present[id] {
			return false
		}
	}
	return true
}

// AggregateStreamed implements fl.StreamingAggregator: Aggregate, with
// the streamed state consumed where it applies. Results are bit-identical
// to Aggregate(uploads) for any ingest subset and arrival order.
func (s *Scheme) AggregateStreamed(sink fl.UploadSink, uploads [][]float64) ([]float64, error) {
	if ri, ok := sink.(*RoundIngest); ok && ri.s == s {
		s.pendingIngest = ri
		defer func() { s.pendingIngest = nil }()
	}
	return s.Aggregate(uploads)
}
