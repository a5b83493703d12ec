// Package ospf implements the link-state routing control plane the paper's
// testbed runs (Quagga ospfd): router LSAs, epidemic flooding, Dijkstra
// shortest paths with ECMP, and — the part that dominates the paper's
// recovery-time measurements — Quagga-style SPF throttling with
// exponential hold backoff and a delayed FIB install.
//
// The recovery anatomy the paper measures decomposes as
//
//	detect (60 ms, package network) → flood LSAs (fast) →
//	wait SPF delay (200 ms initial, up to ~10 s under churn) →
//	compute SPF → install FIB (10 ms)
//
// and every stage is modeled explicitly here.
package ospf

import (
	"fmt"
	"maps"
	"time"

	"repro/internal/detsort"
	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Config carries the control-plane timers.
type Config struct {
	// SPFDelay is the initial wait between the first SPF trigger and the
	// computation (Quagga's default 200 ms, the paper's §I anatomy).
	SPFDelay time.Duration
	// SPFHoldInitial is the quiet period after an SPF run before another
	// may start.
	SPFHoldInitial time.Duration
	// SPFHoldMax caps the exponentially backed-off hold (the paper
	// observes ~9 s timers under churn, §IV-B).
	SPFHoldMax time.Duration
	// FIBUpdateDelay is the delay between SPF completion and the routes
	// landing in the forwarding table (the paper's measured 10 ms).
	FIBUpdateDelay time.Duration
	// FloodHopDelay is the per-hop LSA propagation + processing delay.
	FloodHopDelay time.Duration
	// DisableThrottle removes the hold backoff (ablation: every trigger
	// waits only SPFDelay).
	DisableThrottle bool
	// FullSPF forces a full shortest-path recomputation and a full FIB
	// ReplaceSource on every run — the pre-incremental behaviour, kept as
	// the ablation baseline the incremental path is proven equivalent to.
	// The default repairs the cached DAG on single-link changes and
	// installs only the changed prefixes (ispf.go).
	FullSPF bool
}

// DefaultConfig returns Quagga's defaults as the paper describes them.
func DefaultConfig() Config {
	return Config{
		SPFDelay:       200 * time.Millisecond,
		SPFHoldInitial: 1 * time.Second,
		SPFHoldMax:     10 * time.Second,
		FIBUpdateDelay: 10 * time.Millisecond,
		FloodHopDelay:  1 * time.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.SPFDelay == 0 {
		c.SPFDelay = d.SPFDelay
	}
	if c.SPFHoldInitial == 0 {
		c.SPFHoldInitial = d.SPFHoldInitial
	}
	if c.SPFHoldMax == 0 {
		c.SPFHoldMax = d.SPFHoldMax
	}
	if c.FIBUpdateDelay == 0 {
		c.FIBUpdateDelay = d.FIBUpdateDelay
	}
	if c.FloodHopDelay == 0 {
		c.FloodHopDelay = d.FloodHopDelay
	}
	return c
}

// Adjacency is one up link a router advertises.
type Adjacency struct {
	Neighbor topo.NodeID
	Link     topo.LinkID
}

// LSA is a router link-state advertisement.
type LSA struct {
	Origin      topo.NodeID
	Seq         uint64
	Adjacencies []Adjacency
	Prefixes    []netaddr.Prefix
}

// FloodFilter lets fault injectors interfere with LSA flooding on the
// from→to hop: drop swallows the LSA (it is lost like on a dead wire);
// a non-zero delay defers its delivery by that much. The zero return
// (false, 0) leaves the flood untouched.
type FloodFilter func(now sim.Time, from, to topo.NodeID, lsa *LSA) (drop bool, delay time.Duration)

// Domain runs one OSPF instance per switch of a network.
type Domain struct {
	sim  *sim.Simulator
	nw   *network.Network
	topo *topo.Topology
	cfg  Config

	instances   map[topo.NodeID]*Instance
	onSPF       func(now sim.Time, node topo.NodeID)
	floodFilter FloodFilter
	// selfCheck compares every incremental SPF result and every delta FIB
	// install against a from-scratch recomputation, panicking on any
	// divergence. Tests and the chaos equivalence suite enable it.
	selfCheck bool
}

// Instance is the per-router protocol state.
type Instance struct {
	d    *Domain
	node topo.NodeID

	lsdb map[topo.NodeID]*LSA
	seq  uint64
	// down marks a crashed router: it neither floods, receives nor
	// computes until restarted. seq survives the crash so post-restart
	// LSAs supersede the pre-crash ones held by the rest of the domain.
	down bool

	// SPF throttle state.
	pending   bool
	pendingAt sim.Time
	wasHeld   bool
	holdUntil sim.Time
	curHold   time.Duration

	// Incremental SPF memory (ispf.go).
	spf spfState
	// installed is the OSPF route list most recently handed to the FIB;
	// delta installs diff the next computation against it. installedValid
	// is false whenever the table contents cannot be assumed (before the
	// first install, after a crash or restart), forcing a full
	// ReplaceSource.
	installed      []fib.Route
	installedValid bool
	fullInstalls   int
	deltaInstalls  int

	// Diagnostics.
	spfRuns   int
	lastSPFAt sim.Time
	maxWait   time.Duration // longest trigger→run wait observed
	triggerAt sim.Time      // earliest un-serviced trigger
}

// NewDomain attaches a control plane to every live switch of nw.
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
		d.instances[id] = &Instance{
			d:       d,
			node:    id,
			lsdb:    make(map[topo.NodeID]*LSA),
			curHold: d.cfg.SPFHoldInitial,
		}
	}
	nw.OnPortState(d.portStateChanged)
	return d
}

// OnSPF registers a hook invoked after each SPF run (diagnostics).
func (d *Domain) OnSPF(fn func(now sim.Time, node topo.NodeID)) { d.onSPF = fn }

// SetFloodFilter installs (or clears, with nil) a fault filter on every
// LSA flooding hop.
func (d *Domain) SetFloodFilter(fn FloodFilter) { d.floodFilter = fn }

// SetNodeDown crashes (down=true) or restarts (down=false) a router's
// protocol instance. A crashed instance ignores every received LSA, floods
// nothing and runs no SPF; its LSDB is wiped on restart — only the
// origin-sequence counter survives, so post-restart LSAs supersede stale
// copies elsewhere. On restart the instance re-originates from its current
// believed port state and schedules an SPF; callers that want the rest of
// the domain to refill the restarted LSDB follow up with RefreshAll once
// the restarted links are believed up again.
func (d *Domain) SetNodeDown(now sim.Time, node topo.NodeID, down bool) {
	inst := d.instances[node]
	if inst == nil || inst.down == down {
		return
	}
	inst.down = down
	if down {
		// The forwarding table may be cleared while the router is down;
		// the first post-restart install must not trust a stale diff base.
		inst.installedValid = false
		return
	}
	inst.lsdb = make(map[topo.NodeID]*LSA)
	inst.spf = spfState{
		fullRuns: inst.spf.fullRuns,
		incRuns:  inst.spf.incRuns,
		sameRuns: inst.spf.sameRuns,
	}
	inst.installed = nil
	inst.pending = false
	inst.curHold = d.cfg.SPFHoldInitial
	inst.holdUntil = 0
	inst.wasHeld = false
	inst.triggerAt = 0
	inst.originate(now)
	inst.scheduleSPF(now)
}

// NodeDown reports whether the router's instance is crashed.
func (d *Domain) NodeDown(node topo.NodeID) bool {
	inst := d.instances[node]
	return inst != nil && inst.down
}

// RefreshAll makes every live instance re-originate and flood its LSA —
// RFC 2328's periodic LSA refresh compressed into one on-demand round.
// Chaos runs it after a window of dropped floods or a router restart, when
// epidemic flooding alone can no longer repair LSDB staleness (our model
// floods only on change and has no ack/retransmit machinery).
func (d *Domain) RefreshAll(now sim.Time) {
	for _, id := range detsort.Keys(d.instances) {
		inst := d.instances[id]
		if inst.down {
			continue
		}
		inst.originate(now)
		inst.scheduleSPF(now)
	}
}

// Instance returns the protocol instance of a switch, or nil.
func (d *Domain) Instance(node topo.NodeID) *Instance { return d.instances[node] }

// EnableSelfCheck makes every incremental SPF run and delta FIB install
// verify itself against a full recomputation, panicking on divergence.
// It is the equivalence gate the chaos corpus and fuzz suites run under.
func (d *Domain) EnableSelfCheck() { d.selfCheck = true }

// SPFTotals sums the per-instance SPF breakdown across the domain.
func (d *Domain) SPFTotals() (full, incremental, unchanged int) {
	for _, id := range detsort.Keys(d.instances) {
		f, inc, same := d.instances[id].SPFBreakdown()
		full += f
		incremental += inc
		unchanged += same
	}
	return full, incremental, unchanged
}

// InstallTotals sums the per-instance FIB install breakdown.
func (d *Domain) InstallTotals() (full, delta int) {
	for _, id := range detsort.Keys(d.instances) {
		f, del := d.instances[id].InstallBreakdown()
		full += f
		delta += del
	}
	return full, delta
}

// Config returns the effective configuration.
func (d *Domain) Config() Config { return d.cfg }

// Bootstrap fills every LSDB and installs converged routes synchronously at
// the current simulation time, modeling a network that finished its initial
// convergence before the experiment starts. Throttle state stays quiet, so
// the first failure is handled with the initial SPF delay.
func (d *Domain) Bootstrap() error {
	// Sorted iteration keeps install order and any error deterministic.
	ids := detsort.Keys(d.instances)
	for _, id := range ids {
		d.instances[id].originateLocked()
	}
	// Copy every origin LSA into every LSDB.
	for _, id := range ids {
		inst := d.instances[id]
		for _, srcID := range ids {
			src := d.instances[srcID]
			inst.lsdb[src.node] = src.lsdb[src.node]
		}
	}
	// Every LSDB now holds the same LSAs, so every router would build the
	// same two-way-checked graph: build it once and give each router its
	// own copy of the row map. Rows are shared but never edited in place
	// (the incremental path replaces whole rows through setRow).
	var shared map[topo.NodeID][]edge
	if len(ids) > 0 {
		shared = d.instances[ids[0]].buildGraph()
	}
	for _, id := range ids {
		inst := d.instances[id]
		inst.resetSPF(maps.Clone(shared))
		routes := inst.emitRoutes()
		if err := d.nw.Table(inst.node).ReplaceSource(fib.OSPF, routes); err != nil {
			return fmt.Errorf("bootstrap %s: %w", d.topo.Node(inst.node).Name, err)
		}
		inst.installed = routes
		inst.installedValid = true
		inst.spfRuns++
	}
	return nil
}

// portStateChanged reacts to a failure detector firing on a switch.
func (d *Domain) portStateChanged(now sim.Time, node topo.NodeID, port int, up bool) {
	inst := d.instances[node]
	if inst == nil || inst.down {
		return // host port (no protocol) or crashed router
	}
	inst.originate(now)
	inst.scheduleSPF(now)
}

// originate rebuilds this router's own LSA from believed port state and
// floods it.
func (i *Instance) originate(now sim.Time) {
	lsa := i.originateLocked()
	i.flood(now, lsa, topo.NodeID(topo.None))
}

// originateLocked rebuilds and stores the LSA without flooding.
func (i *Instance) originateLocked() *LSA {
	i.seq++
	nd := i.d.topo.Node(i.node)
	lsa := &LSA{Origin: i.node, Seq: i.seq}
	for _, l := range i.d.topo.LinksOf(i.node) {
		other, ok := l.Other(i.node)
		if !ok || i.d.topo.Node(other).Kind == topo.Host {
			continue
		}
		port, _ := l.PortOf(i.node)
		if !i.d.nw.PortBelievedUp(i.node, port) {
			continue
		}
		lsa.Adjacencies = append(lsa.Adjacencies, Adjacency{Neighbor: other, Link: l.ID})
	}
	if nd.Kind == topo.ToR && !nd.Subnet.IsZero() {
		lsa.Prefixes = append(lsa.Prefixes, nd.Subnet)
	}
	i.lsdb[i.node] = lsa
	i.markDirty(i.node)
	return lsa
}

// flood sends lsa to every believed-up switch neighbor except `from`. The
// LSA is lost if the link is actually down at delivery time; epidemic
// re-flooding through the rest of the graph still converges as long as the
// network is connected.
func (i *Instance) flood(now sim.Time, lsa *LSA, from topo.NodeID) {
	if i.down {
		return
	}
	for _, l := range i.d.topo.LinksOf(i.node) {
		other, ok := l.Other(i.node)
		if !ok || other == from {
			continue
		}
		if i.d.topo.Node(other).Kind == topo.Host {
			continue
		}
		port, _ := l.PortOf(i.node)
		if !i.d.nw.PortBelievedUp(i.node, port) {
			continue
		}
		var extra time.Duration
		if i.d.floodFilter != nil {
			drop, delay := i.d.floodFilter(now, i.node, other, lsa)
			if drop {
				continue // swallowed by the fault, like a dead wire
			}
			extra = delay
		}
		linkID := l.ID
		neighbor := other
		i.d.sim.After(i.d.cfg.FloodHopDelay+extra, func(at sim.Time) {
			if !i.d.nw.LinkDirUp(linkID, i.node) {
				return // lost on a dead wire
			}
			if ni := i.d.instances[neighbor]; ni != nil {
				ni.receive(at, lsa, i.node)
			}
		})
	}
}

// receive processes a flooded LSA.
func (i *Instance) receive(now sim.Time, lsa *LSA, from topo.NodeID) {
	if i.down {
		return // crashed: the LSA is lost on the floor
	}
	cur := i.lsdb[lsa.Origin]
	if cur != nil && cur.Seq >= lsa.Seq {
		return // stale or duplicate
	}
	i.lsdb[lsa.Origin] = lsa
	i.markDirty(lsa.Origin)
	i.flood(now, lsa, from)
	i.scheduleSPF(now)
}

// scheduleSPF arms the throttled SPF timer.
func (i *Instance) scheduleSPF(now sim.Time) {
	if i.pending {
		return
	}
	if i.triggerAt == 0 || i.triggerAt < i.lastSPFAt {
		i.triggerAt = now
	}
	start := now.Add(i.d.cfg.SPFDelay)
	i.wasHeld = false
	if !i.d.cfg.DisableThrottle && start < i.holdUntil {
		start = i.holdUntil
		i.wasHeld = true
	}
	i.pending = true
	i.pendingAt = start
	i.d.sim.At(start, i.runSPF)
}

// runSPF computes routes and schedules the FIB install.
func (i *Instance) runSPF(now sim.Time) {
	i.pending = false
	if i.down {
		return // crashed between trigger and timer
	}
	if wait := now.Sub(i.triggerAt); i.triggerAt > 0 && wait > i.maxWait {
		i.maxWait = wait
	}
	i.triggerAt = 0
	if !i.d.cfg.DisableThrottle {
		if i.wasHeld {
			i.curHold *= 2
			if i.curHold > i.d.cfg.SPFHoldMax {
				i.curHold = i.d.cfg.SPFHoldMax
			}
		} else {
			i.curHold = i.d.cfg.SPFHoldInitial
		}
		i.holdUntil = now.Add(i.curHold)
	}
	i.spfRuns++
	i.lastSPFAt = now
	routes := i.computeRoutes()
	i.d.sim.After(i.d.cfg.FIBUpdateDelay, func(at sim.Time) {
		// Last-writer-wins is correct: installs are scheduled in SPF
		// order, and each delta diffs against what actually landed last.
		// A crash between SPF and install loses the update, as a real
		// switch would.
		if i.down {
			return
		}
		i.install(routes)
	})
	if i.d.onSPF != nil {
		i.d.onSPF(now, i.node)
	}
}

// SPFRuns returns how many SPF computations this instance performed.
func (i *Instance) SPFRuns() int { return i.spfRuns }

// MaxSPFWait returns the longest observed trigger→run wait, showing the
// throttle backoff the paper blames for 9 s request delays.
func (i *Instance) MaxSPFWait() time.Duration { return i.maxWait }

// LSDBSize returns the number of LSAs held.
func (i *Instance) LSDBSize() int { return len(i.lsdb) }
