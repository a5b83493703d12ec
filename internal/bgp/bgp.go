// Package bgp implements a simplified eBGP control plane for the paper's
// §V "Other Distributed Routing Schemes" discussion: production DCNs often
// run BGP instead of OSPF (every switch its own AS, one session per link,
// multipath over equal-length AS paths), and BGP recovers from downward
// failures just as slowly — withdrawals and updates crawl hop by hop,
// gated per neighbor by the MRAI timer ([13] Fabrikant et al.).
//
// F²Tree's backup routes are protocol-agnostic: they sit in the FIB under
// whatever the protocol installs, so the same 60 ms local reroute bridges
// BGP convergence too. See TestF2TreeFastRerouteUnderBGP.
package bgp

import (
	"fmt"
	"time"

	"repro/internal/detsort"
	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Config carries the protocol timers.
type Config struct {
	// MRAI is the per-session minimum route advertisement interval. The
	// Internet default is 30 s; data centers tune it down but rarely to
	// zero. Convergence takes O(path-exploration depth × MRAI).
	MRAI time.Duration
	// ProcDelay is the per-update processing + propagation delay.
	ProcDelay time.Duration
	// FIBUpdateDelay is the best-path → forwarding-table install delay.
	FIBUpdateDelay time.Duration
	// GracefulRestart enables RFC 4724-style helper behavior: when a
	// session drops, routes learned over it are retained as stale for
	// RestartTime instead of withdrawn, and flushed only if the peer does
	// not come back and re-sync (End-of-RIB) in time.
	GracefulRestart bool
	// RestartTime is how long stale routes are retained at full
	// preference (default 2 s).
	RestartTime time.Duration
	// LongLived adds LLGR (draft-uttaro-idr-bgp-persistence) semantics:
	// at RestartTime expiry, stale routes are depreferenced — used only
	// when no fresh route exists — and kept for LLGRStaleTime more before
	// the flush.
	LongLived bool
	// LLGRStaleTime is the depreferenced retention window (default 30 s).
	LLGRStaleTime time.Duration
}

// DefaultConfig uses DC-tuned values.
func DefaultConfig() Config {
	return Config{
		MRAI:           200 * time.Millisecond,
		ProcDelay:      time.Millisecond,
		FIBUpdateDelay: 10 * time.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MRAI == 0 {
		c.MRAI = d.MRAI
	}
	if c.ProcDelay == 0 {
		c.ProcDelay = d.ProcDelay
	}
	if c.FIBUpdateDelay == 0 {
		c.FIBUpdateDelay = d.FIBUpdateDelay
	}
	if c.RestartTime == 0 {
		c.RestartTime = 2 * time.Second
	}
	if c.LLGRStaleTime == 0 {
		c.LLGRStaleTime = 30 * time.Second
	}
	return c
}

// advert is one prefix announcement: the AS path the advertiser offers
// (path[0] is the advertiser, the last element the origin).
type advert struct {
	prefix netaddr.Prefix
	path   []topo.NodeID
}

// update is a BGP UPDATE message.
type update struct {
	adverts   []advert
	withdrawn []netaddr.Prefix
	// eor is the End-of-RIB marker (RFC 4724): the sender has finished its
	// initial (re-)advertisement; the receiving GR helper flushes whatever
	// stale routes the session did not refresh.
	eor bool
}

// session is per-link eBGP state.
type session struct {
	link     topo.LinkID
	neighbor topo.NodeID
	port     int
	up       bool

	mraiUntil sim.Time
	scheduled bool
	// pending marks prefixes whose current best must be (re)advertised or
	// withdrawn when MRAI allows.
	pending map[netaddr.Prefix]bool

	// Graceful-restart helper state. While the session is down with
	// retained=true, the routes learned over it stay in ribIn marked stale
	// instead of being withdrawn; stale tracks which prefixes a
	// re-established peer has not yet refreshed. grEpoch invalidates
	// expiry timers across down/up cycles.
	retained      bool
	stale         map[netaddr.Prefix]bool
	depreferenced bool
	grEpoch       int
	// eorPending makes the next flush carry the End-of-RIB marker (set
	// when the session (re-)establishes under GR).
	eorPending bool
}

// best is a selected route for a prefix.
type best struct {
	pathLen int
	// repr is the representative AS path (used when advertising onward).
	repr []topo.NodeID
	// hops is the ECMP next-hop set over all tied sessions.
	hops []fib.NextHop
	// originated marks locally sourced prefixes (ToR subnets).
	originated bool
}

// Instance is a per-switch BGP speaker.
type Instance struct {
	d    *Domain
	node topo.NodeID

	sessions map[topo.LinkID]*session
	// ribIn[prefix][link] is the path learned over that session.
	ribIn  map[netaddr.Prefix]map[topo.LinkID][]topo.NodeID
	locRib map[netaddr.Prefix]*best

	// down marks a crashed speaker (SetNodeDown): it processes nothing and
	// rewrites no FIB until restart — the switch's data plane keeps
	// forwarding on whatever FIB the speaker last installed
	// (persist-on-crash).
	down bool

	fibPending bool
	updatesRx  int
}

// Domain runs one instance per switch.
type Domain struct {
	sim  *sim.Simulator
	nw   *network.Network
	topo *topo.Topology
	cfg  Config

	instances map[topo.NodeID]*Instance
	// bootstrapping suppresses timers: messages are pumped synchronously
	// through a FIFO until convergence.
	bootstrapping bool
	bootQueue     []bootMsg
}

type bootMsg struct {
	to   topo.NodeID
	from topo.LinkID
	upd  update
}

// NewDomain attaches BGP speakers to every switch.
func NewDomain(nw *network.Network, cfg Config) *Domain {
	d := &Domain{
		sim:       nw.Sim(),
		nw:        nw,
		topo:      nw.Topology(),
		cfg:       cfg.withDefaults(),
		instances: make(map[topo.NodeID]*Instance),
	}
	for _, id := range d.topo.LiveNodes() {
		if d.topo.Node(id).Kind == topo.Host {
			continue
		}
		inst := &Instance{
			d:        d,
			node:     id,
			sessions: make(map[topo.LinkID]*session),
			ribIn:    make(map[netaddr.Prefix]map[topo.LinkID][]topo.NodeID),
			locRib:   make(map[netaddr.Prefix]*best),
		}
		for _, l := range d.topo.LinksOf(id) {
			other, ok := l.Other(id)
			if !ok || d.topo.Node(other).Kind == topo.Host {
				continue
			}
			port, _ := l.PortOf(id)
			inst.sessions[l.ID] = &session{
				link: l.ID, neighbor: other, port: port, up: true,
				pending: make(map[netaddr.Prefix]bool),
			}
		}
		d.instances[id] = inst
	}
	nw.OnPortState(d.portStateChanged)
	return d
}

// Instance returns a switch's speaker, or nil.
func (d *Domain) Instance(node topo.NodeID) *Instance { return d.instances[node] }

// Config returns the effective configuration.
func (d *Domain) Config() Config { return d.cfg }

// UpdatesReceived returns how many UPDATE messages the instance processed
// after bootstrap (convergence-traffic diagnostic).
func (i *Instance) UpdatesReceived() int { return i.updatesRx }

// Bootstrap originates every ToR subnet and pumps updates synchronously
// (no MRAI, no delays) until the protocol converges, then installs every
// FIB — a network that finished initial convergence before the experiment.
func (d *Domain) Bootstrap() error {
	d.bootstrapping = true
	// Sorted iteration: origination order decides the synchronous pump's
	// message order, which decides the converged ribIn contents.
	ids := detsort.Keys(d.instances)
	for _, id := range ids {
		nd := d.topo.Node(id)
		if nd.Kind != topo.ToR || nd.Subnet.IsZero() {
			continue
		}
		d.instances[id].originate(nd.Subnet)
	}
	for len(d.bootQueue) > 0 {
		m := d.bootQueue[0]
		d.bootQueue = d.bootQueue[1:]
		if inst := d.instances[m.to]; inst != nil {
			inst.receive(0, m.from, m.upd)
		}
	}
	d.bootstrapping = false
	for _, id := range ids {
		inst := d.instances[id]
		if err := d.nw.Table(inst.node).ReplaceSource(fib.BGP, inst.routes()); err != nil {
			return fmt.Errorf("bgp: bootstrap %s: %w", d.topo.Node(inst.node).Name, err)
		}
		inst.fibPending = false
		inst.updatesRx = 0
		//f2tree:unordered independent per-session reset
		for _, s := range inst.sessions {
			s.mraiUntil = 0 // bootstrap chatter does not count against MRAI
		}
	}
	return nil
}

// portStateChanged tears down or re-establishes the session on that port.
func (d *Domain) portStateChanged(now sim.Time, node topo.NodeID, port int, up bool) {
	inst := d.instances[node]
	if inst == nil || inst.down {
		return
	}
	//f2tree:unordered ports are unique per switch; at most one session matches
	for _, s := range inst.sessions {
		if s.port != port {
			continue
		}
		if s.up == up {
			return
		}
		if up {
			inst.sessionUp(now, s)
		} else {
			inst.sessionDown(now, s)
		}
		return
	}
}

// sessionUp (re-)establishes a session: the full table is re-advertised,
// followed under GR by an End-of-RIB marker. Stale routes the helper
// retained stay until the peer's EOR flushes the unrefreshed remainder.
func (i *Instance) sessionUp(now sim.Time, s *session) {
	s.up = true
	s.grEpoch++ // pause any running stale-expiry timer
	if i.d.cfg.GracefulRestart {
		s.eorPending = true
	}
	//f2tree:unordered set fill; flush sorts before sending
	for p := range i.locRib {
		s.pending[p] = true
	}
	i.kick(now, s)
}

// sessionDown tears a session down: without GR everything learned over it
// is implicitly withdrawn; a GR helper retains the routes as stale.
func (i *Instance) sessionDown(now sim.Time, s *session) {
	s.up = false
	if i.d.cfg.GracefulRestart {
		i.retainStale(now, s)
		return
	}
	var affected []netaddr.Prefix
	for _, p := range detsort.KeysFunc(i.ribIn, prefixLess) {
		byLink := i.ribIn[p]
		if _, ok := byLink[s.link]; ok {
			delete(byLink, s.link)
			affected = append(affected, p)
		}
	}
	i.reselect(now, affected)
}

// retainStale is the GR helper's down path: mark everything learned over
// the session stale, keep forwarding on it, and arm the expiry timer. At
// RestartTime the routes are flushed — or, under LLGR, depreferenced and
// kept for LLGRStaleTime more.
func (i *Instance) retainStale(now sim.Time, s *session) {
	s.retained = true
	s.depreferenced = false
	s.grEpoch++
	epoch := s.grEpoch
	s.stale = make(map[netaddr.Prefix]bool)
	for _, p := range detsort.KeysFunc(i.ribIn, prefixLess) {
		if _, ok := i.ribIn[p][s.link]; ok {
			s.stale[p] = true
		}
	}
	i.d.sim.At(now.Add(i.d.cfg.RestartTime), func(t sim.Time) {
		if s.grEpoch != epoch || !s.retained || i.down {
			return
		}
		if !i.d.cfg.LongLived {
			i.flushStale(t, s)
			return
		}
		// LLGR: keep the stale routes as a last resort.
		s.depreferenced = true
		i.reselectRetained(t, s)
		i.d.sim.At(t.Add(i.d.cfg.LLGRStaleTime), func(t2 sim.Time) {
			if s.grEpoch != epoch || !s.retained || i.down {
				return
			}
			i.flushStale(t2, s)
		})
	})
}

// flushStale drops every route the session still holds stale and clears
// the helper state (GR timer expiry, or the peer's EOR after re-sync).
func (i *Instance) flushStale(now sim.Time, s *session) {
	var affected []netaddr.Prefix
	for _, p := range detsort.KeysFunc(s.stale, prefixLess) {
		if byLink := i.ribIn[p]; byLink != nil {
			if _, ok := byLink[s.link]; ok {
				delete(byLink, s.link)
				affected = append(affected, p)
			}
		}
	}
	s.stale = nil
	s.retained = false
	s.depreferenced = false
	i.reselect(now, affected)
}

// reselectRetained re-runs selection for the session's stale prefixes
// (their preference tier just changed).
func (i *Instance) reselectRetained(now sim.Time, s *session) {
	i.reselect(now, detsort.KeysFunc(s.stale, prefixLess))
}

// originate injects a locally sourced prefix.
func (i *Instance) originate(p netaddr.Prefix) {
	i.locRib[p] = &best{originated: true, repr: nil, pathLen: 0}
	// Sorted sessions: kick order decides bootstrap pump order and, live,
	// the event-queue tie-break sequence.
	for _, l := range detsort.Keys(i.sessions) {
		s := i.sessions[l]
		s.pending[p] = true
		i.kick(0, s)
	}
}

// receive processes an UPDATE arriving over link `from`.
func (i *Instance) receive(now sim.Time, from topo.LinkID, upd update) {
	if i.down {
		return
	}
	i.updatesRx++
	s := i.sessions[from]
	if s == nil || !s.up {
		return
	}
	var affected []netaddr.Prefix
	for _, a := range upd.adverts {
		if s.stale != nil {
			delete(s.stale, a.prefix) // refreshed by the restarted peer
		}
		if containsNode(a.path, i.node) {
			// Loop prevention. An UPDATE replaces the neighbor's previous
			// announcement (RFC 4271): a rejected path implicitly
			// withdraws whatever this session advertised before —
			// otherwise a stale pre-failure route lingers and forwarding
			// loops form.
			if byLink := i.ribIn[a.prefix]; byLink != nil {
				if _, ok := byLink[from]; ok {
					delete(byLink, from)
					affected = append(affected, a.prefix)
				}
			}
			continue
		}
		byLink := i.ribIn[a.prefix]
		if byLink == nil {
			byLink = make(map[topo.LinkID][]topo.NodeID, 2)
			i.ribIn[a.prefix] = byLink
		}
		byLink[from] = a.path
		affected = append(affected, a.prefix)
	}
	for _, p := range upd.withdrawn {
		if s.stale != nil {
			delete(s.stale, p)
		}
		if byLink := i.ribIn[p]; byLink != nil {
			if _, ok := byLink[from]; ok {
				delete(byLink, from)
				affected = append(affected, p)
			}
		}
	}
	i.reselect(now, affected)
	if upd.eor && s.retained {
		// Re-sync complete: whatever the peer did not refresh is gone.
		i.flushStale(now, s)
	}
}

// reselect recomputes best paths for the prefixes and floods changes.
func (i *Instance) reselect(now sim.Time, prefixes []netaddr.Prefix) {
	changed := false
	for _, p := range dedupePrefixes(prefixes) {
		old := i.locRib[p]
		if old != nil && old.originated {
			continue // locally sourced beats everything
		}
		nb := i.selectBest(p)
		if bestEqual(old, nb) {
			continue
		}
		changed = true
		if nb == nil {
			delete(i.locRib, p)
		} else {
			i.locRib[p] = nb
		}
		for _, l := range detsort.Keys(i.sessions) {
			s := i.sessions[l]
			s.pending[p] = true
			i.kick(now, s)
		}
	}
	if changed {
		i.scheduleFIB(now)
	}
}

// selectBest picks the multipath set of shortest AS paths. Candidates are
// routes over up sessions plus, under GR, routes a helper retains for a
// down peer. LLGR-depreferenced stale routes form a second tier used only
// when no fresh route exists.
func (i *Instance) selectBest(p netaddr.Prefix) *best {
	byLink := i.ribIn[p]
	if len(byLink) == 0 {
		return nil
	}
	if nb := i.selectTier(p, byLink, false); nb != nil {
		return nb
	}
	return i.selectTier(p, byLink, true)
}

// selectTier selects among the prefix's candidates of one preference tier
// (fresh, or LLGR-depreferenced stale).
func (i *Instance) selectTier(p netaddr.Prefix, byLink map[topo.LinkID][]topo.NodeID, wantDepref bool) *best {
	links := make([]topo.LinkID, 0, len(byLink))
	minLen := -1
	for _, l := range detsort.Keys(byLink) {
		s := i.sessions[l]
		if s == nil || (!s.up && !s.retained) {
			continue
		}
		depref := s.depreferenced && s.stale != nil && s.stale[p]
		if depref != wantDepref {
			continue
		}
		if path := byLink[l]; minLen == -1 || len(path) < minLen {
			minLen = len(path)
		}
		links = append(links, l)
	}
	if minLen == -1 {
		return nil
	}
	nb := &best{pathLen: minLen}
	for _, l := range links {
		path := byLink[l]
		if len(path) != minLen {
			continue
		}
		s := i.sessions[l]
		nb.hops = append(nb.hops, fib.NextHop{Port: s.port, Via: i.d.topo.Node(s.neighbor).Addr})
		if nb.repr == nil {
			nb.repr = path
		}
	}
	if len(nb.hops) == 0 {
		return nil
	}
	return nb
}

// kick arranges for the session's pending prefixes to be flushed, honoring
// MRAI.
func (i *Instance) kick(now sim.Time, s *session) {
	if i.d.bootstrapping {
		i.flush(now, s)
		return
	}
	if s.scheduled || (len(s.pending) == 0 && !s.eorPending) || !s.up {
		return
	}
	at := now
	if s.mraiUntil > at {
		at = s.mraiUntil
	}
	s.scheduled = true
	i.d.sim.At(at, func(t sim.Time) {
		s.scheduled = false
		i.flush(t, s)
	})
}

// flush sends one UPDATE carrying every pending prefix.
func (i *Instance) flush(now sim.Time, s *session) {
	if (len(s.pending) == 0 && !s.eorPending) || !s.up {
		return
	}
	var upd update
	for _, p := range detsort.KeysFunc(s.pending, prefixLess) {
		delete(s.pending, p)
		b := i.locRib[p]
		if b == nil {
			upd.withdrawn = append(upd.withdrawn, p)
			continue
		}
		path := append([]topo.NodeID{i.node}, b.repr...)
		upd.adverts = append(upd.adverts, advert{prefix: p, path: path})
	}
	if s.eorPending {
		// The flush drained the full post-establishment advertisement; mark
		// its end so the helper can flush unrefreshed stale routes.
		upd.eor = true
		s.eorPending = false
	}
	s.mraiUntil = now.Add(i.d.cfg.MRAI)
	if i.d.bootstrapping {
		i.d.bootQueue = append(i.d.bootQueue, bootMsg{to: s.neighbor, from: s.link, upd: upd})
		return
	}
	link := s.link
	neighbor := s.neighbor
	i.d.sim.After(i.d.cfg.ProcDelay, func(at sim.Time) {
		if !i.d.nw.LinkDirUp(link, i.node) {
			return // lost on a dead wire
		}
		if ni := i.d.instances[neighbor]; ni != nil {
			ni.receive(at, link, upd)
		}
	})
}

// scheduleFIB coalesces FIB rewrites.
func (i *Instance) scheduleFIB(now sim.Time) {
	if i.fibPending || i.d.bootstrapping {
		return
	}
	i.fibPending = true
	i.d.sim.After(i.d.cfg.FIBUpdateDelay, func(sim.Time) {
		i.fibPending = false
		if i.down {
			return // crashed: the last installed FIB persists untouched
		}
		_ = i.d.nw.Table(i.node).ReplaceSource(fib.BGP, i.routes())
	})
}

// routes renders locRib as FIB routes (originated prefixes excluded: the
// ToR reaches its own subnet via connected /32s).
func (i *Instance) routes() []fib.Route {
	out := make([]fib.Route, 0, len(i.locRib))
	for _, p := range detsort.KeysFunc(i.locRib, prefixLess) {
		b := i.locRib[p]
		if b.originated || len(b.hops) == 0 {
			continue
		}
		hops := make([]fib.NextHop, len(b.hops))
		copy(hops, b.hops)
		out = append(out, fib.Route{Prefix: p, Source: fib.BGP, NextHops: hops})
	}
	return out
}

// prefixLess totally orders prefixes by (address, length). Sorting by
// address alone is not enough: a prefix and its covering prefix share the
// masked address, and a tie there would reintroduce map-order dependence.
func prefixLess(a, b netaddr.Prefix) bool {
	if a.Addr() != b.Addr() {
		return a.Addr() < b.Addr()
	}
	return a.Bits() < b.Bits()
}

func containsNode(path []topo.NodeID, n topo.NodeID) bool {
	for _, p := range path {
		if p == n {
			return true
		}
	}
	return false
}

func dedupePrefixes(ps []netaddr.Prefix) []netaddr.Prefix {
	seen := make(map[netaddr.Prefix]bool, len(ps))
	out := ps[:0]
	for _, p := range ps {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func bestEqual(a, b *best) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.originated != b.originated || a.pathLen != b.pathLen || len(a.hops) != len(b.hops) {
		return false
	}
	for i := range a.hops {
		if a.hops[i] != b.hops[i] {
			return false
		}
	}
	return true
}
