// Package topo models data center topologies as pure graphs of nodes,
// ports and links, and provides builders for the topologies the paper
// studies: 3-layer fat tree, F²Tree (the canonical construction matching
// Table I), the paper's 4-port prototype rewiring (Fig 1(b)), two-layer
// Leaf-Spine and VL2 with their F²Tree variants (§V, Fig 7).
package topo

import (
	"fmt"
	"sort"

	"repro/internal/detsort"
	"repro/internal/netaddr"
)

// Kind classifies a node.
type Kind int

// Node kinds.
const (
	Host Kind = iota + 1
	ToR
	Agg
	Core
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case ToR:
		return "tor"
	case Agg:
		return "agg"
	case Core:
		return "core"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// NodeID indexes Topology.Nodes.
type NodeID int

// LinkID indexes Topology.Links.
type LinkID int

// None marks an absent node or link reference.
const None = -1

// Node is a switch or host.
type Node struct {
	ID       NodeID
	Name     string
	Kind     Kind
	NumPorts int
	// Addr is the node's router/interface address.
	Addr netaddr.Addr
	// Subnet is the host subnet a ToR advertises; zero for other kinds.
	Subnet netaddr.Prefix
	// Pod is the pod (or core group) ordinal; None when not applicable.
	Pod int
	// Index is the ordinal within the node's pod and layer.
	Index int
	// Pruned marks a node removed by rewiring; pruned nodes keep their ID
	// slot but are skipped by accessors and by the network builder.
	Pruned bool
}

// LinkClass classifies a link by the layers it joins.
type LinkClass int

// Link classes.
const (
	HostLink   LinkClass = iota + 1 // host ↔ ToR
	EdgeLink                        // ToR ↔ aggregation
	SpineLink                       // aggregation ↔ core (or leaf ↔ spine)
	AcrossLink                      // F²Tree across link inside a ring
	RackLink                        // ToR ↔ ToR peering inside a dual-ToR rack
)

// String names the class.
func (c LinkClass) String() string {
	switch c {
	case HostLink:
		return "host"
	case EdgeLink:
		return "edge"
	case SpineLink:
		return "spine"
	case AcrossLink:
		return "across"
	case RackLink:
		return "rack"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Link is an undirected edge between port APort of node A and port BPort of
// node B. Removed links keep their slot (Removed=true) so LinkIDs stay
// stable across rewiring.
type Link struct {
	ID      LinkID
	A, B    NodeID
	APort   int
	BPort   int
	Class   LinkClass
	Removed bool
}

// Other returns the endpoint opposite n, and ok=false if n is not an
// endpoint.
func (l Link) Other(n NodeID) (NodeID, bool) {
	switch n {
	case l.A:
		return l.B, true
	case l.B:
		return l.A, true
	default:
		return None, false
	}
}

// PortOf returns the port used on node n, and ok=false if n is not an
// endpoint.
func (l Link) PortOf(n NodeID) (int, bool) {
	switch n {
	case l.A:
		return l.APort, true
	case l.B:
		return l.BPort, true
	default:
		return 0, false
	}
}

// Ring is an ordered cycle of switches joined by across links. The right
// across neighbor of Members[i] is Members[(i+1)%len]; the left neighbor is
// Members[(i-1+len)%len]. For a 2-ring the left and right neighbor coincide
// but are reached over distinct (parallel) across links.
type Ring struct {
	// Layer is the kind of the member switches (Agg or Core).
	Layer Kind
	// Pod is the pod/core-group ordinal the ring belongs to.
	Pod int
	// Members lists the switches in ring order.
	Members []NodeID
	// RightLink[i] is the across link from Members[i] to its right
	// neighbor. LeftLink of Members[i] is RightLink[(i-1+len)%len].
	RightLink []LinkID
}

// Rack is a dual-ToR rack: two ToRs sharing one host subnet, joined by a
// peer link, with every rack host dual-homed to both (the Calico dual-ToR
// attachment). Both ToRs advertise the shared subnet (anycast) and carry a
// backup route for it over the peer link.
type Rack struct {
	// ToRs are the rack's two switches, primary first.
	ToRs [2]NodeID
	// Peer is the ToR↔ToR rack link.
	Peer LinkID
	// Subnet is the shared host subnet both ToRs advertise.
	Subnet netaddr.Prefix
	// Hosts lists the rack's dual-homed hosts, in ID order.
	Hosts []NodeID
}

// AddrPlan describes the address layout (paper Fig 3(d)).
type AddrPlan struct {
	// DCNPrefix contains every host subnet (e.g. 10.11.0.0/16).
	DCNPrefix netaddr.Prefix
	// Covering is the one-bit-shorter prefix containing DCNPrefix
	// (e.g. 10.10.0.0/15).
	Covering netaddr.Prefix
}

// Topology is a mutable network graph — rewiring mutates links in place,
// so a running simulation owns its topology like the rest of its state.
type Topology struct {
	Name  string
	Nodes []Node
	Links []Link
	Rings []Ring
	Racks []Rack
	Plan  AddrPlan

	// ports[n][p] is the link occupying port p of node n, or None.
	ports [][]LinkID
}

// NewTopology returns an empty named topology.
func NewTopology(name string) *Topology {
	return &Topology{Name: name}
}

// AddNode appends a node and allocates its port array. The node's ID is
// assigned by the topology.
func (t *Topology) AddNode(n Node) NodeID {
	n.ID = NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, n)
	pp := make([]LinkID, n.NumPorts)
	for i := range pp {
		pp[i] = None
	}
	t.ports = append(t.ports, pp)
	return n.ID
}

// GrowPorts adds extra ports to a node (topology transforms that re-home
// hosts or add peer links use it; new ports start free).
func (t *Topology) GrowPorts(n NodeID, extra int) {
	t.Nodes[n].NumPorts += extra
	for i := 0; i < extra; i++ {
		t.ports[n] = append(t.ports[n], None)
	}
}

// Node returns the node with the given id.
func (t *Topology) Node(id NodeID) *Node { return &t.Nodes[id] }

// RackOf returns the rack containing node n (as ToR or host), or nil.
func (t *Topology) RackOf(n NodeID) *Rack {
	for i := range t.Racks {
		r := &t.Racks[i]
		if r.ToRs[0] == n || r.ToRs[1] == n {
			return r
		}
		for _, h := range r.Hosts {
			if h == n {
				return r
			}
		}
	}
	return nil
}

// Link returns the link with the given id.
func (t *Topology) Link(id LinkID) *Link { return &t.Links[id] }

// freePort returns the lowest unoccupied port of n, or an error.
func (t *Topology) freePort(n NodeID) (int, error) {
	for p, l := range t.ports[n] {
		if l == None {
			return p, nil
		}
	}
	return 0, fmt.Errorf("topo: node %s out of ports", t.Nodes[n].Name)
}

// AddLink connects a and b on their lowest free ports.
func (t *Topology) AddLink(a, b NodeID, class LinkClass) (LinkID, error) {
	ap, err := t.freePort(a)
	if err != nil {
		return None, err
	}
	// Reserve ap before searching b in case a == b (disallowed anyway).
	if a == b {
		return None, fmt.Errorf("topo: self link on %s", t.Nodes[a].Name)
	}
	bp, err := t.freePort(b)
	if err != nil {
		return None, err
	}
	id := LinkID(len(t.Links))
	t.Links = append(t.Links, Link{ID: id, A: a, APort: ap, B: b, BPort: bp, Class: class})
	t.ports[a][ap] = id
	t.ports[b][bp] = id
	return id, nil
}

// RemoveLink marks a link removed and frees its ports. Removing an already
// removed link is an error (it signals a rewiring-plan bug).
func (t *Topology) RemoveLink(id LinkID) error {
	l := &t.Links[id]
	if l.Removed {
		return fmt.Errorf("topo: link %d already removed", id)
	}
	l.Removed = true
	t.ports[l.A][l.APort] = None
	t.ports[l.B][l.BPort] = None
	return nil
}

// PruneNode removes every live link of n and marks it pruned.
func (t *Topology) PruneNode(n NodeID) error {
	for _, l := range t.LinksOf(n) {
		if err := t.RemoveLink(l.ID); err != nil {
			return err
		}
	}
	t.Nodes[n].Pruned = true
	return nil
}

// LinksOf returns the live links attached to n, in port order.
func (t *Topology) LinksOf(n NodeID) []*Link {
	out := make([]*Link, 0, len(t.ports[n]))
	for _, id := range t.ports[n] {
		if id != None {
			out = append(out, &t.Links[id])
		}
	}
	return out
}

// LinkOnPort returns the live link on port p of node n, or nil.
func (t *Topology) LinkOnPort(n NodeID, p int) *Link {
	if p < 0 || p >= len(t.ports[n]) {
		return nil
	}
	id := t.ports[n][p]
	if id == None {
		return nil
	}
	return &t.Links[id]
}

// LinksBetween returns the live links joining a and b (there can be two:
// F²Tree 2-rings use parallel across links).
func (t *Topology) LinksBetween(a, b NodeID) []*Link {
	var out []*Link
	for _, id := range t.ports[a] {
		if id == None {
			continue
		}
		l := &t.Links[id]
		if o, ok := l.Other(a); ok && o == b {
			out = append(out, l)
		}
	}
	return out
}

// Neighbors returns the distinct live neighbors of n, sorted.
func (t *Topology) Neighbors(n NodeID) []NodeID {
	seen := make(map[NodeID]bool)
	for _, l := range t.LinksOf(n) {
		if o, ok := l.Other(n); ok {
			seen[o] = true
		}
	}
	return detsort.Keys(seen)
}

// LiveLinks returns every non-removed link.
func (t *Topology) LiveLinks() []*Link {
	out := make([]*Link, 0, len(t.Links))
	for i := range t.Links {
		if !t.Links[i].Removed {
			out = append(out, &t.Links[i])
		}
	}
	return out
}

// NodesOfKind returns the IDs of every live (non-pruned) node of kind k,
// in ID order.
func (t *Topology) NodesOfKind(k Kind) []NodeID {
	var out []NodeID
	for i := range t.Nodes {
		if t.Nodes[i].Kind == k && !t.Nodes[i].Pruned {
			out = append(out, t.Nodes[i].ID)
		}
	}
	return out
}

// LiveNodes returns every non-pruned node ID in order.
func (t *Topology) LiveNodes() []NodeID {
	out := make([]NodeID, 0, len(t.Nodes))
	for i := range t.Nodes {
		if !t.Nodes[i].Pruned {
			out = append(out, t.Nodes[i].ID)
		}
	}
	return out
}

// FindNode returns the node with the given name, or nil.
func (t *Topology) FindNode(name string) *Node {
	for i := range t.Nodes {
		if t.Nodes[i].Name == name {
			return &t.Nodes[i]
		}
	}
	return nil
}

// HostsUnder returns the hosts attached to ToR tor, in ID order.
func (t *Topology) HostsUnder(tor NodeID) []NodeID {
	var out []NodeID
	for _, l := range t.LinksOf(tor) {
		if o, ok := l.Other(tor); ok && t.Nodes[o].Kind == Host {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SwitchCount returns the number of live non-host nodes.
func (t *Topology) SwitchCount() int {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].Kind != Host && !t.Nodes[i].Pruned {
			n++
		}
	}
	return n
}

// HostCount returns the number of live hosts.
func (t *Topology) HostCount() int {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].Kind == Host && !t.Nodes[i].Pruned {
			n++
		}
	}
	return n
}

// RingOf returns the ring containing switch n plus n's position in it, or
// nil if n is not a ring member.
func (t *Topology) RingOf(n NodeID) (*Ring, int) {
	for i := range t.Rings {
		for pos, m := range t.Rings[i].Members {
			if m == n {
				return &t.Rings[i], pos
			}
		}
	}
	return nil, 0
}

// RightAcross returns n's right across neighbor and the link to it.
func (t *Topology) RightAcross(n NodeID) (NodeID, LinkID, bool) {
	r, pos := t.RingOf(n)
	if r == nil {
		return None, None, false
	}
	next := r.Members[(pos+1)%len(r.Members)]
	return next, r.RightLink[pos], true
}

// LeftAcross returns n's left across neighbor and the link to it.
func (t *Topology) LeftAcross(n NodeID) (NodeID, LinkID, bool) {
	r, pos := t.RingOf(n)
	if r == nil {
		return None, None, false
	}
	prev := (pos - 1 + len(r.Members)) % len(r.Members)
	return r.Members[prev], r.RightLink[prev], true
}
