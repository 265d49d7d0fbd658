package fl

import (
	"fmt"
	"strings"
)

// Verdict is what a round decided about one vehicle. A round gives each
// of its V vehicles exactly one, so its verdicts sum to V. System and
// the networked engine (package node) state them alike: a round's
// admitted set, its Admitted and Flagged vehicles, is the set of uploads
// its close aggregated.
type Verdict uint8

const (
	// Admitted: the vehicle's upload entered the round.
	Admitted Verdict = iota
	// Flagged: the upload entered the round and the scheme's verification
	// named the vehicle (core.Scheme.DetectedMalicious).
	Flagged
	// Late: the round closed, at its deadline or its wait budget, while
	// the vehicle still owed its upload.
	Late
	// Withheld: the vehicle trailed too far behind to be sent the round's
	// broadcast and was not heard from before the round closed.
	Withheld
	// Disconnected: the vehicle's connection was down when the round
	// closed.
	Disconnected
	// Lost: the channel lost the vehicle's upload (System only).
	Lost
	// NumVerdicts is the number of verdict kinds.
	NumVerdicts
)

var verdictNames = [NumVerdicts]string{"admitted", "flagged", "late", "withheld", "disconnected", "lost"}

func (v Verdict) String() string { return verdictNames[v] }

// Tally counts verdicts by kind.
type Tally [NumVerdicts]int

// Add counts every verdict in vs.
func (t *Tally) Add(vs []Verdict) {
	for _, v := range vs {
		t[v]++
	}
}

// String lists the non-zero counts in kind order, as "40 admitted,
// 8 late".
func (t Tally) String() string {
	var parts []string
	for v, n := range t {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, Verdict(v)))
		}
	}
	return strings.Join(parts, ", ")
}
