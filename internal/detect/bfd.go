package detect

import (
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// session is one adaptive BFD session (one per live link; BFD is a
// per-link protocol, so both endpoints share the session verdict — losing
// either direction kills it, exactly like the fixed detector's bothUp).
type session struct {
	// interval is the current negotiated transmit interval.
	interval time.Duration
	// misses / goods count consecutive bad / good probe rounds.
	misses int
	goods  int
	// down is the session verdict currently applied to port beliefs.
	down bool
	// stable counts consecutive good rounds at an elevated interval, for
	// decaying the interval back toward base.
	stable int
}

// bfdDetector runs one deterministic adaptive BFD session per link. Probes
// are evaluated at each session tick against the data plane's *current*
// queue occupancy: a round is good when the link is up in both directions
// and neither direction would delay an echo past the budget. Multiplier
// consecutive bad rounds flap the session down (a false positive when the
// link is physically healthy but congested); Multiplier good rounds bring
// it back. Each flap doubles the interval up to MaxInterval; a stable
// stretch at an elevated interval halves it back toward base.
type bfdDetector struct {
	dp       DataPlane
	base     time.Duration
	maxIntvl time.Duration
	budget   time.Duration
	mult     int
	sessions []session
	// stopped makes pending ticks fire without rescheduling, so the
	// free-running sessions stop keeping the simulator busy once the
	// driver wants to drain to idle.
	stopped bool
}

func newBFD(spec Spec, dp DataPlane) *bfdDetector {
	return &bfdDetector{
		dp:       dp,
		base:     time.Duration(spec.TxIntervalUs) * time.Microsecond,
		maxIntvl: time.Duration(spec.MaxIntervalUs) * time.Microsecond,
		budget:   time.Duration(spec.EchoBudgetUs) * time.Microsecond,
		mult:     spec.Multiplier,
	}
}

// Start arms one free-running session per live link, in link-ID order so
// same-tick evaluations are deterministically sequenced.
func (b *bfdDetector) Start() {
	b.sessions = make([]session, b.dp.NumLinks())
	for i := range b.sessions {
		id := topo.LinkID(i)
		b.sessions[i].interval = b.base
		if !b.dp.LinkLive(id) {
			continue
		}
		b.dp.After(b.sessions[i].interval, func(now sim.Time) { b.tick(now, id) })
	}
}

// Bound: detecting a failure takes at most Multiplier bad rounds plus the
// phase to the next tick, at the widest negotiated interval; recovery
// (Multiplier good rounds) is bounded by the same quantity.
func (b *bfdDetector) Bound() time.Duration {
	return time.Duration(b.mult+1) * b.maxIntvl
}

// LinkChanged re-asserts the session's current verdict onto both port
// beliefs. Failures themselves are noticed by the free-running ticks; this
// hook exists so RescanPorts can repair beliefs left stale by a detection
// suppression fault (the re-assert is a no-op when beliefs already match).
func (b *bfdDetector) LinkChanged(id topo.LinkID) {
	if int(id) >= len(b.sessions) || !b.dp.LinkLive(id) {
		return
	}
	up := !b.sessions[id].down
	b.dp.After(0, func(now sim.Time) { b.apply(now, id, up) })
}

// Stop halts the free-running sessions; pending ticks become no-ops.
func (b *bfdDetector) Stop() { b.stopped = true }

// tick evaluates one probe round and reschedules itself.
func (b *bfdDetector) tick(now sim.Time, id topo.LinkID) {
	if b.stopped {
		return
	}
	s := &b.sessions[id]
	ok := b.dp.LinkUp(id)
	if ok {
		// The link is physically up; the probe still misses if either
		// direction's queue would delay the echo past the budget. This is
		// the load coupling: echo probes share the transmit queues with
		// data traffic.
		ed := b.dp.EchoDelay(id)
		ok = ed[0] <= b.budget && ed[1] <= b.budget
	}
	if s.down {
		if ok {
			s.goods++
			if s.goods >= b.mult {
				s.down = false
				s.goods = 0
				s.stable = 0
				b.apply(now, id, true)
			}
		} else {
			s.goods = 0
		}
	} else {
		if ok {
			s.misses = 0
			if s.interval > b.base {
				s.stable++
				// Decay: after a stable stretch at an elevated interval,
				// renegotiate halfway back toward the base interval.
				if s.stable >= 4*b.mult {
					s.stable = 0
					s.interval /= 2
					if s.interval < b.base {
						s.interval = b.base
					}
				}
			}
		} else {
			s.misses++
			s.stable = 0
			if s.misses >= b.mult {
				s.down = true
				s.misses = 0
				// Renegotiate: a flapping session backs off its interval
				// (doubling, capped) so persistent congestion cannot hold
				// the session in a tight flap loop.
				s.interval *= 2
				if s.interval > b.maxIntvl {
					s.interval = b.maxIntvl
				}
				b.apply(now, id, false)
			}
		}
	}
	b.dp.After(s.interval, func(t sim.Time) { b.tick(t, id) })
}

// apply pushes a session verdict to both endpoints' port beliefs, A end
// first (matching the fixed detector's endpoint order).
func (b *bfdDetector) apply(now sim.Time, id topo.LinkID, up bool) {
	ends := b.dp.LinkEnds(id)
	for _, end := range ends {
		b.dp.SetPortBelief(now, end.Node, end.Port, up)
	}
}
