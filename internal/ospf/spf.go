package ospf

import (
	"sort"

	"repro/internal/detsort"
	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/topo"
)

type edge struct {
	to   topo.NodeID
	link topo.LinkID
}

const inf = int(^uint(0) >> 1)

// computeRoutes runs the shortest-path computation over the LSDB and
// returns the ECMP routes to every advertised prefix. Links have unit cost
// (the paper's footnote 4), so Dijkstra reduces to BFS with equal-cost
// predecessor merging. An adjacency is used only if both routers advertise
// it over the same link (the OSPF two-way check), which keeps half-dead
// links out of the graph while detections race.
//
// The steady state is incremental: a single-link LSA change repairs the
// cached shortest-path DAG (ispf.go) instead of recomputing it. Full BFS
// runs on the first computation, on structural changes the repair does not
// cover, and always under Config.FullSPF (the equivalence baseline).
func (i *Instance) computeRoutes() []fib.Route {
	switch {
	case i.d.cfg.FullSPF || !i.spf.valid:
		i.computeFull()
	case i.computeIncremental():
		if i.d.selfCheck {
			i.verifySPF()
		}
	default:
		i.computeFull()
	}
	return i.emitRoutes()
}

// adjOK reports whether the peer advertises the same link back — the OSPF
// two-way check. Edge presence is symmetric in the endpoint LSAs, which is
// what lets the incremental path treat directed-edge changes as whole-link
// changes.
func (i *Instance) adjOK(from, to topo.NodeID, link topo.LinkID) bool {
	peer := i.lsdb[to]
	if peer == nil {
		return false
	}
	for _, a := range peer.Adjacencies {
		if a.Neighbor == from && a.Link == link {
			return true
		}
	}
	return false
}

// buildRow returns origin's adjacency row — its two-way-checked out-edges,
// sorted by (neighbor, link). nil when the origin has no usable edge.
func (i *Instance) buildRow(origin topo.NodeID) []edge {
	lsa := i.lsdb[origin]
	if lsa == nil {
		return nil
	}
	var row []edge
	for _, a := range lsa.Adjacencies {
		if i.adjOK(origin, a.Neighbor, a.Link) {
			row = append(row, edge{to: a.Neighbor, link: a.Link})
		}
	}
	sort.Slice(row, func(x, y int) bool {
		if row[x].to != row[y].to {
			return row[x].to < row[y].to
		}
		return row[x].link < row[y].link
	})
	return row
}

// buildGraph assembles the full adjacency-row map from the LSDB.
func (i *Instance) buildGraph() map[topo.NodeID][]edge {
	graph := make(map[topo.NodeID][]edge, len(i.lsdb))
	for _, origin := range detsort.Keys(i.lsdb) {
		if row := i.buildRow(origin); len(row) > 0 {
			graph[origin] = row
		}
	}
	return graph
}

// firstHop returns the local first hop for a directly attached link.
func (i *Instance) firstHop(link topo.LinkID, to topo.NodeID) (fib.NextHop, bool) {
	l := i.d.topo.Link(link)
	port, ok := l.PortOf(i.node)
	if !ok {
		return fib.NextHop{}, false
	}
	return fib.NextHop{Port: port, Via: i.d.topo.Node(to).Addr}, true
}

// runBFS computes distances and first-hop sets from self over the graph.
// nh[v] is the set of local first-hop next hops beginning some shortest
// path to v.
func (i *Instance) runBFS(graph map[topo.NodeID][]edge) (map[topo.NodeID]int, map[topo.NodeID]map[fib.NextHop]bool) {
	dist := make(map[topo.NodeID]int, len(graph))
	nh := make(map[topo.NodeID]map[fib.NextHop]bool, len(graph))
	distOf := func(n topo.NodeID) int {
		if d, ok := dist[n]; ok {
			return d
		}
		return inf
	}
	dist[i.node] = 0
	frontier := []topo.NodeID{i.node}
	for len(frontier) > 0 {
		var next []topo.NodeID
		for _, u := range frontier {
			for _, e := range graph[u] {
				dv := distOf(e.to)
				du := dist[u]
				if dv < du+1 {
					continue
				}
				if dv > du+1 {
					dist[e.to] = du + 1
					next = append(next, e.to)
				}
				set := nh[e.to]
				if set == nil {
					set = make(map[fib.NextHop]bool, 2)
					nh[e.to] = set
				}
				if u == i.node {
					// First hop: the local port of this link.
					hop, ok := i.firstHop(e.link, e.to)
					if !ok {
						continue
					}
					set[hop] = true
				} else {
					//f2tree:unordered set union; content is order-independent
					for hop := range nh[u] {
						set[hop] = true
					}
				}
			}
		}
		frontier = dedupe(next)
	}
	return dist, nh
}

// computeFull rebuilds the shortest-path state from scratch and resets the
// incremental bookkeeping.
func (i *Instance) computeFull() { i.resetSPF(i.buildGraph()) }

// resetSPF makes graph — the two-way-checked rows of the current LSDB,
// owned by this instance from now on — the shortest-path state and runs a
// full BFS over it.
func (i *Instance) resetSPF(graph map[topo.NodeID][]edge) {
	st := &i.spf
	st.graph = graph
	st.dist, st.nh = i.runBFS(st.graph)
	st.dirty = nil
	st.valid = true
	st.fullRuns++
}

// emitRoutes emits one route per advertised prefix of every other
// reachable router, from the current shortest-path state.
//
// A prefix may be advertised by more than one origin (dual-ToR racks
// anycast their shared subnet from both ToRs): the route keeps the
// minimum-distance origin's next hops, unioning hop sets when origins tie,
// so traffic prefers the nearer rack ToR and load-shares at equal cost.
// With single-origin prefixes the emission is exactly the historical
// per-origin list.
func (i *Instance) emitRoutes() []fib.Route {
	type cand struct {
		dist int
		hops map[fib.NextHop]bool
	}
	var order []netaddr.Prefix
	byPrefix := make(map[netaddr.Prefix]*cand)
	for _, o := range detsort.Keys(i.lsdb) {
		if o == i.node {
			continue
		}
		lsa := i.lsdb[o]
		set := i.spf.nh[o]
		if len(set) == 0 || len(lsa.Prefixes) == 0 {
			continue
		}
		d := i.spf.dist[o]
		for _, p := range lsa.Prefixes {
			c := byPrefix[p]
			switch {
			case c == nil:
				order = append(order, p)
				byPrefix[p] = &cand{dist: d, hops: set}
			case d < c.dist:
				c.dist = d
				c.hops = set
			case d == c.dist:
				if c.hops != nil && len(set) > 0 {
					merged := make(map[fib.NextHop]bool, len(c.hops)+len(set))
					//f2tree:unordered set union; content is order-independent
					for h := range c.hops {
						merged[h] = true
					}
					//f2tree:unordered set union; content is order-independent
					for h := range set {
						merged[h] = true
					}
					c.hops = merged
				}
			}
		}
	}
	routes := make([]fib.Route, 0, len(order))
	for _, p := range order {
		routes = append(routes, fib.Route{
			Prefix: p, Source: fib.OSPF,
			NextHops: detsort.KeysFunc(byPrefix[p].hops, fib.HopLess),
		})
	}
	return routes
}

// dedupe removes duplicate node IDs while preserving first-seen order.
func dedupe(ids []topo.NodeID) []topo.NodeID {
	seen := make(map[topo.NodeID]bool, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
