// Package fib implements a router forwarding table: longest-prefix-match
// over routes with ECMP next-hop sets, per-source administrative distance,
// and — crucially for F²Tree — fallback to shorter prefixes when every next
// hop of a longer match is locally known to be unusable.
//
// That fallback is the data-plane mechanism the paper relies on (§II-B):
// the static backup routes (DCN /16 via the right across neighbor, covering
// /15 via the left across neighbor) are pre-installed under the OSPF /24s
// and win a lookup only when the /24's next hops are all dead.
package fib

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/detsort"
	"repro/internal/netaddr"
)

// Source identifies the protocol that installed a route. Lower values win
// when the same prefix is installed by several sources (administrative
// distance).
type Source int

// Route sources in ascending administrative distance. Only one routing
// protocol runs at a time in the simulator, so the OSPF/BGP relative order
// never decides a lookup.
const (
	Connected Source = iota + 1
	Static
	OSPF
	BGP
)

// String returns the conventional name of the source.
func (s Source) String() string {
	switch s {
	case Connected:
		return "connected"
	case Static:
		return "static"
	case OSPF:
		return "ospf"
	case BGP:
		return "bgp"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// NextHop is one egress choice: the local port to send on and the neighbor
// address reached through it.
type NextHop struct {
	Port int
	Via  netaddr.Addr
}

// String formats the next hop for diagnostics.
func (n NextHop) String() string {
	return fmt.Sprintf("via %v port %d", n.Via, n.Port)
}

// HopLess is the canonical next-hop order (port, then neighbor address).
// Every ECMP set in the simulator is sorted with it so that route
// installation is deterministic; it is the comparator to pass to
// detsort.KeysFunc when extracting hops from a set.
func HopLess(a, b NextHop) bool {
	if a.Port != b.Port {
		return a.Port < b.Port
	}
	return a.Via < b.Via
}

// Route is a prefix with its ECMP next-hop set, installed by a source.
type Route struct {
	Prefix   netaddr.Prefix
	Source   Source
	NextHops []NextHop
}

// FlowKey is the five-tuple ECMP hashes on (RFC 2992 style hashing).
type FlowKey struct {
	Src, Dst         netaddr.Addr
	Proto            uint8
	SrcPort, DstPort uint16
}

// Hash returns a stable FNV-1a hash of the five-tuple. It runs once per
// forwarded packet per hop (ECMP pick), so it is written closure-free.
//
//f2tree:hotpath
func (k FlowKey) Hash() uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 24; i >= 0; i -= 8 {
		h = (h ^ uint32(byte(k.Src>>i))) * prime
	}
	for i := 24; i >= 0; i -= 8 {
		h = (h ^ uint32(byte(k.Dst>>i))) * prime
	}
	h = (h ^ uint32(k.Proto)) * prime
	h = (h ^ uint32(byte(k.SrcPort>>8))) * prime
	h = (h ^ uint32(byte(k.SrcPort))) * prime
	h = (h ^ uint32(byte(k.DstPort>>8))) * prime
	h = (h ^ uint32(byte(k.DstPort))) * prime
	return h
}

// entry holds every route installed for one prefix, keyed by source.
type entry struct {
	bySource map[Source][]NextHop
}

// best returns the next hops of the lowest-distance source present.
//
//f2tree:hotpath
func (e *entry) best() []NextHop {
	var (
		bestSrc Source
		hops    []NextHop
	)
	//f2tree:unordered minimum over source keys; commutative
	for src, nh := range e.bySource {
		if len(nh) == 0 {
			continue
		}
		if hops == nil || src < bestSrc {
			bestSrc, hops = src, nh
		}
	}
	return hops
}

// slotHash mixes the five-tuple into the flow cache's slot index; the
// table uses its top bits. It is cheaper than Hash, which stays the ECMP
// pick so next-hop choices do not depend on the cache.
//
//f2tree:hotpath
func (k FlowKey) slotHash() uint64 {
	x := uint64(k.Src)<<32 | uint64(k.Dst)
	y := uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto)
	h := (x ^ y*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// cacheSlot is one memoized lookup in the open-addressed flow cache. It is
// live only while stamp equals the table's epoch+1: the zero slot is never
// live, and an epoch bump frees every slot at once.
type cacheSlot struct {
	key   FlowKey
	res   Result
	stamp uint64
}

// Flow-cache sizing: a table starts at cacheInitSlots (or its cap, if
// smaller) and doubles toward the cap only when a key's probe window of
// cacheProbe slots is full, so switches that see few flows stay small.
const (
	cacheInitSlots = 16
	cacheProbe     = 8
)

// Table is a forwarding table. The zero value is not usable; call New.
// Each table belongs to one switch in one simulation.
type Table struct {
	// byLen[b] maps masked network addresses of length b to entries.
	//f2tree:epochguarded
	byLen [33]map[netaddr.Addr]*entry
	// lens lists the prefix lengths with at least one installed route, in
	// descending order — the only lengths Lookup visits. A production table
	// holds ~3 distinct lengths (/32, /24, /16, /15), not 33.
	//f2tree:epochguarded
	lens []int
	//f2tree:epochguarded
	count int

	// epoch versions every state a Lookup result depends on. Route
	// mutations bump it internally; link-usability transitions must bump
	// it via InvalidateFlowCache (the usable predicate is external state).
	//f2tree:epoch
	epoch uint64
	// cache is the flow→Result memo: open-addressed, linear probing over
	// a power-of-two slot array indexed by the top bits of slotHash
	// (cacheShift = 64 − log2 len). nil when the cache is disabled.
	cache      []cacheSlot
	cacheShift uint
	cacheCap   int // power of two; len(cache) never exceeds it
}

// New returns an empty table.
func New() *Table {
	return &Table{}
}

// EnableFlowCache turns on flow→Result memoization for Lookup. capEntries
// bounds the slot count (≤ 0 means a default of 4096; other values round
// down to a power of two). The table starts with at most cacheInitSlots
// slots and doubles only when an insert finds its probe window full; at
// the cap, a full window overwrites the key's home slot. Hits return
// exactly what an uncached lookup would, so sizing and eviction change
// speed, never results.
//
// Correctness contract: the cache is invalidated by epoch comparison, and
// the epoch advances automatically on every Add/Remove/ReplaceSource. The
// caller owns the other half — whenever the state behind a Lookup's usable
// predicate changes (a port's believed state flips), it must call
// InvalidateFlowCache, or cached Results may bypass the F²Tree fallback.
func (t *Table) EnableFlowCache(capEntries int) {
	if capEntries <= 0 {
		capEntries = 4096
	}
	t.cacheCap = 1 << (bits.Len(uint(capEntries)) - 1)
	t.resizeCache(min(cacheInitSlots, t.cacheCap))
}

// resizeCache replaces the slot array with one of n slots (a power of two)
// and re-inserts the live entries. An entry whose new window is full is
// dropped: it is only a cache.
//
//f2tree:hotpath
func (t *Table) resizeCache(n int) {
	old := t.cache
	t.cache = make([]cacheSlot, n)
	t.cacheShift = uint(64 - bits.TrailingZeros(uint(n)))
	live := t.epoch + 1
	for i := range old {
		if old[i].stamp == live {
			if j := t.freeSlot(old[i].key); j >= 0 {
				t.cache[j] = old[i]
			}
		}
	}
}

// cacheGet returns the memoized result for flow, if live. Within an epoch
// slots are only ever filled, never emptied, so probing stops at the first
// free slot.
//
//f2tree:hotpath
func (t *Table) cacheGet(flow FlowKey) (Result, bool) {
	live := t.epoch + 1
	mask := len(t.cache) - 1
	i := int(flow.slotHash() >> t.cacheShift)
	for j := 0; j < cacheProbe && j <= mask; j++ {
		sl := &t.cache[(i+j)&mask]
		if sl.stamp != live {
			break
		}
		if sl.key == flow {
			return sl.res, true
		}
	}
	return Result{}, false
}

// freeSlot returns the first slot in flow's probe window that holds no
// live entry, or −1 when the window is full.
//
//f2tree:hotpath
func (t *Table) freeSlot(flow FlowKey) int {
	live := t.epoch + 1
	mask := len(t.cache) - 1
	i := int(flow.slotHash() >> t.cacheShift)
	for j := 0; j < cacheProbe && j <= mask; j++ {
		if k := (i + j) & mask; t.cache[k].stamp != live {
			return k
		}
	}
	return -1
}

// cachePut memoizes a lookup that cacheGet just missed.
//
//f2tree:hotpath
func (t *Table) cachePut(flow FlowKey, res Result) {
	j := t.freeSlot(flow)
	if j < 0 && len(t.cache) < t.cacheCap {
		t.resizeCache(2 * len(t.cache))
		j = t.freeSlot(flow)
	}
	if j < 0 {
		j = int(flow.slotHash() >> t.cacheShift) // full at the cap: evict the home slot
	}
	t.cache[j] = cacheSlot{key: flow, res: res, stamp: t.epoch + 1}
}

// InvalidateFlowCache discards every memoized lookup by advancing the
// table's epoch. Call it on any link-usability transition visible to the
// usable predicates passed to Lookup.
func (t *Table) InvalidateFlowCache() { t.epoch++ }

// notePopulated records that length b just gained its first route,
// inserting it into the descending lens list.
//
//f2tree:noepoch internal helper; every caller (Add/ReplaceSource) bumps the epoch itself
func (t *Table) notePopulated(b int) {
	i := sort.Search(len(t.lens), func(i int) bool { return t.lens[i] <= b })
	if i < len(t.lens) && t.lens[i] == b {
		return
	}
	t.lens = append(t.lens, 0)
	copy(t.lens[i+1:], t.lens[i:])
	t.lens[i] = b
}

// noteEmptied records that length b lost its last route.
//
//f2tree:noepoch internal helper; every caller (Remove/ReplaceSource) bumps the epoch itself
func (t *Table) noteEmptied(b int) {
	i := sort.Search(len(t.lens), func(i int) bool { return t.lens[i] <= b })
	if i < len(t.lens) && t.lens[i] == b {
		t.lens = append(t.lens[:i], t.lens[i+1:]...)
	}
}

// Add installs (or replaces) the route for (prefix, source). Next hops are
// kept sorted by port for deterministic ECMP. An empty next-hop set is an
// error.
func (t *Table) Add(r Route) error {
	if len(r.NextHops) == 0 {
		return fmt.Errorf("fib: route %v has no next hops", r.Prefix)
	}
	hops := make([]NextHop, len(r.NextHops))
	copy(hops, r.NextHops)
	sort.Slice(hops, func(i, j int) bool { return hops[i].Port < hops[j].Port })
	b := r.Prefix.Bits()
	if t.byLen[b] == nil {
		t.byLen[b] = make(map[netaddr.Addr]*entry)
	}
	if len(t.byLen[b]) == 0 {
		t.notePopulated(b)
	}
	e := t.byLen[b][r.Prefix.Addr()]
	if e == nil {
		e = &entry{bySource: make(map[Source][]NextHop, 2)}
		t.byLen[b][r.Prefix.Addr()] = e
	}
	if _, existed := e.bySource[r.Source]; !existed {
		t.count++
	}
	e.bySource[r.Source] = hops
	t.epoch++
	return nil
}

// Remove deletes the route for (prefix, source). Removing a route that is
// not present is a no-op.
func (t *Table) Remove(p netaddr.Prefix, src Source) {
	b := p.Bits()
	m := t.byLen[b]
	if m == nil {
		return
	}
	e := m[p.Addr()]
	if e == nil {
		return
	}
	if _, ok := e.bySource[src]; !ok {
		return
	}
	delete(e.bySource, src)
	t.count--
	if len(e.bySource) == 0 {
		delete(m, p.Addr())
		if len(m) == 0 {
			t.noteEmptied(b)
		}
	}
	t.epoch++
}

// ReplaceSource atomically replaces every route of the given source with
// the provided set. This models a routing protocol installing the result of
// a fresh computation.
func (t *Table) ReplaceSource(src Source, routes []Route) error {
	for b := 0; b <= 32; b++ {
		//f2tree:unordered per-entry delete and commutative count decrement
		for addr, e := range t.byLen[b] {
			if _, ok := e.bySource[src]; ok {
				delete(e.bySource, src)
				t.count--
				if len(e.bySource) == 0 {
					delete(t.byLen[b], addr)
					if len(t.byLen[b]) == 0 {
						t.noteEmptied(b)
					}
				}
			}
		}
	}
	t.epoch++
	for _, r := range routes {
		r.Source = src
		if err := t.Add(r); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of installed (prefix, source) routes.
func (t *Table) Len() int { return t.count }

// Clear wipes every installed route of every source — the FIB of a switch
// that crashed and restarted with empty forwarding state. The flow cache
// (if enabled) stays enabled and is invalidated by the epoch bump.
func (t *Table) Clear() {
	for b := range t.byLen {
		t.byLen[b] = nil
	}
	t.lens = t.lens[:0]
	t.count = 0
	t.epoch++
}

// Result is a successful lookup.
type Result struct {
	Prefix  netaddr.Prefix
	NextHop NextHop
}

// Lookup finds the longest prefix containing dst whose best route has at
// least one next hop for which usable returns true, then picks one by
// hashing the flow key across the usable set. A nil usable accepts all.
//
// The shorter-prefix fallback happens here: if every next hop of the /24 is
// unusable, the /16 is consulted, then the /15 — exactly the behaviour the
// paper configures with its two static backup routes.
//
//f2tree:hotpath
func (t *Table) Lookup(dst netaddr.Addr, flow FlowKey, usable func(NextHop) bool) (Result, bool) {
	// The cache memoizes only the canonical forwarding query (dst is the
	// flow's destination); diagnostic lookups with a detached dst bypass it.
	cached := t.cache != nil && dst == flow.Dst
	if cached {
		if res, ok := t.cacheGet(flow); ok {
			return res, true
		}
	}
	var scratch [16]NextHop
	// Only lengths that hold routes are visited — typically /32, /24, /16,
	// /15 — and the mask is applied directly: no per-length error path.
	for _, b := range t.lens {
		e := t.byLen[b][dst.Masked(b)]
		if e == nil {
			continue
		}
		hops := e.best()
		if len(hops) == 0 {
			continue
		}
		live := scratch[:0]
		for _, nh := range hops {
			if usable == nil || usable(nh) {
				live = append(live, nh)
			}
		}
		if len(live) == 0 {
			continue // fall through to a shorter prefix
		}
		pick := live[int(flow.Hash()%uint32(len(live)))]
		res := Result{Prefix: netaddr.PrefixOf(dst, b), NextHop: pick}
		if cached {
			t.cachePut(flow, res)
		}
		return res, true
	}
	return Result{}, false
}

// Routes returns every installed route, sorted by (bits desc, addr, source)
// for stable diagnostics output.
func (t *Table) Routes() []Route {
	out := make([]Route, 0, t.count)
	for b := 32; b >= 0; b-- {
		m := t.byLen[b]
		if len(m) == 0 {
			continue
		}
		for _, a := range detsort.Keys(m) {
			e := m[a]
			srcs := detsort.Keys(e.bySource)
			p, err := netaddr.PrefixFrom(a, b)
			if err != nil {
				continue
			}
			for _, s := range srcs {
				hops := make([]NextHop, len(e.bySource[s]))
				copy(hops, e.bySource[s])
				out = append(out, Route{Prefix: p, Source: s, NextHops: hops})
			}
		}
	}
	return out
}

// String renders the table like a router's "show ip route".
func (t *Table) String() string {
	var b strings.Builder
	for _, r := range t.Routes() {
		fmt.Fprintf(&b, "%-20v %-9s", r.Prefix, r.Source)
		for i, nh := range r.NextHops {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " %v", nh)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
