// Package chaos is the repository's deterministic fault-injection layer:
// a seeded transport.Conn wrapper that drops, corrupts, delays, and
// hard-closes protocol messages according to a schedule parsed from a
// compact fault-spec string, plus the process-fault vocabulary
// (crash-before-upload / crash-after-upload) the vehicle retry layer and
// the fusion centre's rejoin path are tested against.
//
// Determinism contract: every fault decision is drawn from a
// field.SeededSource derived from (Spec.Seed, peer index) and advanced
// once per matching rule per message. The protocol is lockstep per
// connection, so the message sequence a wrapped conn sees — and therefore
// the exact fault pattern — is a pure function of the spec, independent of
// goroutine scheduling and worker counts. Same seed + same spec ⇒ same
// faults, byte-identical aggregates (pinned in internal/node's chaos
// tests).
//
// The fault-spec grammar (DESIGN.md §11):
//
//	spec   := clause (';' clause)*
//	clause := 'seed=' INT
//	        | fault ['.' msgkind] ['@' peer] '=' args
//	fault  := 'drop' | 'corrupt' | 'delay' | 'crash'
//	args   := PROB [':max=' N]            (drop, corrupt)
//	        | PROB ':' DURATION [':max=' N]  (delay)
//	        | ('before-upload' | 'after-upload') ':' ROUND  (crash)
//
// Examples:
//
//	seed=7;drop.upload=0.15:max=4            drop up to 4 uploads, p=0.15
//	corrupt.upload=1:max=2                   corrupt the first two uploads
//	delay=0.2:2ms                            delay any message, p=0.2
//	crash@7=before-upload:2                  peer 7 crashes before its round-2 upload
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Message kinds a rule may scope to — the protocol.Message discriminators.
var msgKinds = map[string]bool{
	"hello": true, "setup": true, "broadcast": true,
	"upload": true, "finished": true, "error": true,
}

// Rule is one probabilistic per-message fault.
type Rule struct {
	// Fault is "drop", "corrupt" or "delay".
	Fault string
	// Kind filters by message kind; "" matches every message.
	Kind string
	// Peer filters by peer index; -1 matches every peer.
	Peer int
	// Prob is the per-message fault probability in [0, 1].
	Prob float64
	// Delay is the hold duration for delay faults.
	Delay time.Duration
	// Max caps how many times the rule fires per connection (0 = no cap).
	Max int
}

// Crash is one scheduled process fault, modelled at the connection: the
// wrapped conn hard-closes around the named round's upload. Each crash
// fires at most once per peer across the whole Injector, so a vehicle
// that reconnects and resends the same round's upload does not crash
// again — that is what lets restart-and-rejoin recover.
type Crash struct {
	// Peer filters by peer index; -1 matches every peer.
	Peer int
	// Point is "before-upload" or "after-upload".
	Point string
	// Round is the 1-based round whose upload triggers the crash.
	Round int
}

// Spec is a parsed fault specification.
type Spec struct {
	// Seed drives every per-peer fault schedule (default 1).
	Seed    int64
	Rules   []Rule
	Crashes []Crash
}

// Parse parses a fault-spec string (see the package comment for the
// grammar). An empty string yields an empty, fault-free spec.
func Parse(s string) (*Spec, error) {
	spec := &Spec{Seed: 1}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		eq := strings.Index(clause, "=")
		if eq < 0 {
			return nil, fmt.Errorf("chaos: clause %q has no '='", clause)
		}
		left, right := clause[:eq], clause[eq+1:]
		if left == "seed" {
			seed, err := strconv.ParseInt(right, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: seed %q: %w", right, err)
			}
			spec.Seed = seed
			continue
		}
		peer := -1
		if at := strings.Index(left, "@"); at >= 0 {
			p, err := strconv.Atoi(left[at+1:])
			if err != nil || p < 0 {
				return nil, fmt.Errorf("chaos: clause %q: bad peer %q", clause, left[at+1:])
			}
			peer, left = p, left[:at]
		}
		kind := ""
		if dot := strings.Index(left, "."); dot >= 0 {
			kind, left = left[dot+1:], left[:dot]
			if !msgKinds[kind] {
				return nil, fmt.Errorf("chaos: clause %q: unknown message kind %q", clause, kind)
			}
		}
		switch left {
		case "drop", "corrupt", "delay":
			rule, err := parseRule(left, kind, peer, right)
			if err != nil {
				return nil, fmt.Errorf("chaos: clause %q: %w", clause, err)
			}
			spec.Rules = append(spec.Rules, rule)
		case "crash":
			if kind != "" {
				return nil, fmt.Errorf("chaos: clause %q: crash takes no message kind", clause)
			}
			crash, err := parseCrash(peer, right)
			if err != nil {
				return nil, fmt.Errorf("chaos: clause %q: %w", clause, err)
			}
			spec.Crashes = append(spec.Crashes, crash)
		default:
			return nil, fmt.Errorf("chaos: clause %q: unknown fault %q", clause, left)
		}
	}
	return spec, nil
}

func parseRule(fault, kind string, peer int, args string) (Rule, error) {
	parts := strings.Split(args, ":")
	rule := Rule{Fault: fault, Kind: kind, Peer: peer}
	prob, err := strconv.ParseFloat(parts[0], 64)
	// The negated range test also rejects NaN, which compares false
	// against every bound and would otherwise slip through.
	if err != nil || !(prob >= 0 && prob <= 1) {
		return rule, fmt.Errorf("probability %q must be a float in [0, 1]", parts[0])
	}
	rule.Prob = prob
	rest := parts[1:]
	if fault == "delay" {
		if len(rest) == 0 {
			return rule, fmt.Errorf("delay needs a duration, e.g. delay=0.2:2ms")
		}
		d, err := time.ParseDuration(rest[0])
		if err != nil || d <= 0 {
			return rule, fmt.Errorf("bad delay duration %q", rest[0])
		}
		rule.Delay = d
		rest = rest[1:]
	}
	for _, p := range rest {
		v, ok := strings.CutPrefix(p, "max=")
		if !ok {
			return rule, fmt.Errorf("unknown argument %q", p)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return rule, fmt.Errorf("bad max %q", v)
		}
		rule.Max = n
	}
	return rule, nil
}

func parseCrash(peer int, args string) (Crash, error) {
	point, roundStr, ok := strings.Cut(args, ":")
	if !ok {
		return Crash{}, fmt.Errorf("crash needs point:round, e.g. crash=before-upload:2")
	}
	if point != "before-upload" && point != "after-upload" {
		return Crash{}, fmt.Errorf("unknown crash point %q (want before-upload or after-upload)", point)
	}
	round, err := strconv.Atoi(roundStr)
	if err != nil || round < 1 {
		return Crash{}, fmt.Errorf("bad crash round %q", roundStr)
	}
	return Crash{Peer: peer, Point: point, Round: round}, nil
}

// String renders the spec back into the grammar (canonical clause order:
// seed, rules in declaration order, crashes in declaration order).
func (s *Spec) String() string {
	parts := []string{fmt.Sprintf("seed=%d", s.Seed)}
	for _, r := range s.Rules {
		left := r.Fault
		if r.Kind != "" {
			left += "." + r.Kind
		}
		if r.Peer >= 0 {
			left += "@" + strconv.Itoa(r.Peer)
		}
		args := trimFloat(r.Prob)
		if r.Fault == "delay" {
			args += ":" + r.Delay.String()
		}
		if r.Max > 0 {
			args += ":max=" + strconv.Itoa(r.Max)
		}
		parts = append(parts, left+"="+args)
	}
	for _, c := range s.Crashes {
		left := "crash"
		if c.Peer >= 0 {
			left += "@" + strconv.Itoa(c.Peer)
		}
		parts = append(parts, fmt.Sprintf("%s=%s:%d", left, c.Point, c.Round))
	}
	return strings.Join(parts, ";")
}

// trimFloat renders a probability without trailing zeros.
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
