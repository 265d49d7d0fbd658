package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/transport"
)

// Raw events of the traced pass. The wrappers only append these; spans
// are derived after the session so recording stays cheap.
type sendEvent struct {
	vehicle, round int
	broadcast      bool
	start, end     time.Duration // end covers the Flush that follows
}

type recvEvent struct {
	vehicle, round int
	at             time.Duration // Recv return of an Upload
}

type vehicleEvent struct {
	vehicle, round int
	gotBroadcast   time.Duration // Recv return of the round's Broadcast
	sendStart      time.Duration // Upload Send call
	sendEnd        time.Duration // Upload Send+Flush return
}

// recording is everything the traced session kept in memory.
type recording struct {
	captureRound int
	broadcast    []float64   // captured round's Broadcast params
	uploads      [][]float64 // captured round's admitted uploads, by vehicle ID
	arrival      []int       // admitted vehicle IDs of the captured round, in Recv order

	sends    []sendEvent    // fusion side, chronological (one goroutine)
	recvs    []recvEvent    // fusion side, sorted by time
	vehicles []vehicleEvent // vehicle side
	starts   []time.Duration
}

// collect merges the per-connection buffers once the session is over.
func (r *recording) collect(fusion []transport.Conn, taps []*vehicleTap, starts []time.Duration) {
	r.starts = starts
	captureIdx := r.captureRound - warmupRounds - 1
	closeAt := starts[captureIdx+1]
	r.uploads = make([][]float64, len(fusion))
	type arrived struct {
		id int
		at time.Duration
	}
	var order []arrived
	for _, fc := range fusion {
		c := fc.(*fusionConn)
		c.mu.Lock()
		r.recvs = append(r.recvs, c.recvs...)
		for _, ev := range c.recvs {
			// Only uploads inside the captured round's window were
			// admitted; a straggler's arrives many rounds later.
			if ev.round == r.captureRound && ev.at < closeAt && c.captured != nil {
				r.uploads[ev.vehicle] = c.captured
				order = append(order, arrived{ev.vehicle, ev.at})
			}
		}
		c.mu.Unlock()
	}
	sort.Slice(r.recvs, func(a, b int) bool { return r.recvs[a].at < r.recvs[b].at })
	sort.Slice(order, func(a, b int) bool { return order[a].at < order[b].at })
	for _, a := range order {
		r.arrival = append(r.arrival, a.id)
	}
	for _, t := range taps {
		t.mu.Lock()
		r.vehicles = append(r.vehicles, t.events...)
		t.mu.Unlock()
	}
}

// roundView is one timed round reduced to the instants the ledger needs.
type roundView struct {
	start, end   time.Duration
	broadcastEnd time.Duration // last Send+Flush return of the broadcast sweep
	closeAt      time.Duration // Recv return of the upload that closed the window
	admitted     int
	late         int // stale uploads (an earlier round's) received during this round
	sent         int // fusion-side frames sent
	frames       int // fusion-side frames sent and received
	sendBusy     time.Duration
	sweep        []sendEvent
}

// rounds cuts the event streams at the round boundaries.
func (r *recording) rounds() []roundView {
	n := len(r.starts) - 1
	out := make([]roundView, n)
	si, ri := 0, 0
	for si < len(r.sends) && r.sends[si].start < r.starts[0] {
		si++
	}
	for ri < len(r.recvs) && r.recvs[ri].at < r.starts[0] {
		ri++
	}
	for i := range out {
		v := &out[i]
		v.start, v.end = r.starts[i], r.starts[i+1]
		v.broadcastEnd, v.closeAt = v.start, v.start
		round := warmupRounds + 1 + i
		// The sweep visits vehicles in ascending ID order; a Broadcast
		// that breaks the order is a withheld one released mid-collect.
		inSweep, lastID := true, -1
		for ; si < len(r.sends) && r.sends[si].start < v.end; si++ {
			ev := r.sends[si]
			v.sent++
			v.frames++
			v.sendBusy += ev.end - ev.start
			if inSweep && ev.broadcast && ev.round == round && ev.vehicle > lastID {
				lastID = ev.vehicle
				v.sweep = append(v.sweep, ev)
				v.broadcastEnd = ev.end
			} else {
				inSweep = false
			}
		}
		for ; ri < len(r.recvs) && r.recvs[ri].at < v.end; ri++ {
			ev := r.recvs[ri]
			v.frames++
			if ev.round == round {
				v.admitted++
				v.closeAt = ev.at
			} else {
				v.late++
			}
		}
		if v.closeAt < v.broadcastEnd {
			v.closeAt = v.broadcastEnd
		}
	}
	return out
}

// spans lays the recording out as a tree: session > round > {broadcast >
// sends, collect, tail, vehicle compute/send}.
func (r *recording) spans(views []roundView) []span {
	n := len(views)
	spans := make([]span, 0, 1+4*n+len(r.sends)+2*len(r.vehicles))
	spans = append(spans, span{Name: "session", Start: r.starts[0], End: r.starts[n], Parent: -1, Vehicle: -1})
	roundSpan := make([]int, n)
	for i, v := range views {
		round := warmupRounds + 1 + i
		roundSpan[i] = len(spans)
		spans = append(spans, span{Name: "node.round", Start: v.start, End: v.end, Parent: 0, Round: round, Vehicle: -1})
		bc := len(spans)
		spans = append(spans, span{Name: "node.broadcast", Start: v.start, End: v.broadcastEnd, Parent: roundSpan[i], Round: round, Vehicle: -1})
		for _, ev := range v.sweep {
			spans = append(spans, span{Name: "transport.send", Start: ev.start, End: ev.end, Parent: bc, Round: round, Vehicle: ev.vehicle})
		}
		spans = append(spans,
			span{Name: "node.collect", Start: v.broadcastEnd, End: v.closeAt, Parent: roundSpan[i], Round: round, Vehicle: -1},
			span{Name: "node.tail", Start: v.closeAt, End: v.end, Parent: roundSpan[i], Round: round, Vehicle: -1})
	}
	for _, ev := range r.vehicles {
		i := ev.round - warmupRounds - 1
		if i < 0 || i >= n {
			continue
		}
		spans = append(spans,
			span{Name: "vehicle.compute", Start: ev.gotBroadcast, End: ev.sendStart, Parent: roundSpan[i], Round: ev.round, Vehicle: ev.vehicle},
			span{Name: "vehicle.send", Start: ev.sendStart, End: ev.sendEnd, Parent: roundSpan[i], Round: ev.round, Vehicle: ev.vehicle})
	}
	return spans
}

// writeSpans writes one JSON object per span.
func writeSpans(dir, workloadName string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workloadName+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return "", fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}

// sessionLedger derives the node.* and transport.* span metrics of one
// recorded session.
func sessionLedger(res *sessionResult, views []roundView, spans []span, out ledger) {
	var broadcast, collect, tail, sendPerRound, frames, admitted, late []float64
	var busy time.Duration
	sent := 0
	for _, v := range views {
		broadcast = append(broadcast, msOf(v.broadcastEnd-v.start))
		collect = append(collect, msOf(v.closeAt-v.broadcastEnd))
		tail = append(tail, msOf(v.end-v.closeAt))
		sendPerRound = append(sendPerRound, msOf(v.sendBusy))
		frames = append(frames, float64(v.frames))
		admitted = append(admitted, float64(v.admitted)/float64(res.in.w.vehicles))
		late = append(late, float64(v.late))
		busy += v.sendBusy
		sent += v.sent
	}
	out["node.broadcast_ms"] = median(broadcast)
	out["node.collect_ms"] = median(collect)
	out["node.tail_ms"] = median(tail)
	out["node.admitted_frac"] = mean(admitted)
	out["node.late_uploads_per_round"] = mean(late)
	out["transport.send_ms_per_round"] = median(sendPerRound)
	out["transport.frames_per_round"] = mean(frames)
	if sent > 0 {
		out["transport.send_us_per_frame"] = usOf(busy) / float64(sent)
	}

	self := selfTimes(spans)
	var bcSelf, compute, send []float64
	for i, s := range spans {
		switch s.Name {
		case "node.broadcast":
			bcSelf = append(bcSelf, msOf(self[i]))
		case "vehicle.compute":
			compute = append(compute, msOf(s.End-s.Start))
		case "vehicle.send":
			send = append(send, usOf(s.End-s.Start))
		}
	}
	out["node.broadcast_self_ms"] = median(bcSelf)
	out["node.vehicle_compute_ms"] = median(compute)
	out["node.vehicle_send_us"] = median(send)
}
