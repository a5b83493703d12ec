package fib

import (
	"testing"

	"repro/internal/netaddr"
)

// cacheFixture installs the paper's route shape: an OSPF /24 with two ECMP
// next hops (ports 0, 1) over a static /16 backup (port 10).
func cacheFixture(t *testing.T) (*Table, netaddr.Addr, FlowKey) {
	t.Helper()
	tbl := New()
	if err := tbl.Add(Route{Prefix: netaddr.MustParsePrefix("10.11.5.0/24"), Source: OSPF,
		NextHops: []NextHop{{Port: 0}, {Port: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(Route{Prefix: netaddr.MustParsePrefix("10.11.0.0/16"), Source: Static,
		NextHops: []NextHop{{Port: 10}}}); err != nil {
		t.Fatal(err)
	}
	dst := netaddr.MustParseAddr("10.11.5.9")
	flow := FlowKey{Src: netaddr.MustParseAddr("10.11.0.2"), Dst: dst,
		Proto: 17, SrcPort: 40000, DstPort: 9}
	return tbl, dst, flow
}

// TestFlowCacheFallbackOnInvalidate replays the paper's failure sequence
// against the cache: the /24's next hops die, the caller invalidates, and
// the next lookup must fall back to the /16 backup route — then recover to
// the /24 when the hops heal.
func TestFlowCacheFallbackOnInvalidate(t *testing.T) {
	tbl, dst, flow := cacheFixture(t)
	tbl.EnableFlowCache(0)
	dead := map[int]bool{}
	usable := func(nh NextHop) bool { return !dead[nh.Port] }

	res, ok := tbl.Lookup(dst, flow, usable)
	if !ok || res.Prefix.Bits() != 24 {
		t.Fatalf("initial lookup = %+v, %v; want /24 hit", res, ok)
	}
	// Second lookup is served from cache (same answer).
	res2, ok := tbl.Lookup(dst, flow, usable)
	if !ok || res2 != res {
		t.Fatalf("cached lookup = %+v, want %+v", res2, res)
	}

	// Both /24 next hops die; the caller fulfills its contract.
	dead[0], dead[1] = true, true
	tbl.InvalidateFlowCache()
	res, ok = tbl.Lookup(dst, flow, usable)
	if !ok || res.Prefix.Bits() != 16 || res.NextHop.Port != 10 {
		t.Fatalf("post-failure lookup = %+v, %v; want /16 backup via port 10", res, ok)
	}

	// Link heals: back to the /24.
	dead[0], dead[1] = false, false
	tbl.InvalidateFlowCache()
	res, ok = tbl.Lookup(dst, flow, usable)
	if !ok || res.Prefix.Bits() != 24 {
		t.Fatalf("post-heal lookup = %+v, %v; want /24 again", res, ok)
	}
}

// TestFlowCacheStaleWithoutInvalidate pins the caller contract from the
// other side: if the usable predicate's state changes and nobody calls
// InvalidateFlowCache, the cache keeps serving the old result. This is the
// sharp edge network.Network must (and does) handle on every believed
// port-state transition.
func TestFlowCacheStaleWithoutInvalidate(t *testing.T) {
	tbl, dst, flow := cacheFixture(t)
	tbl.EnableFlowCache(0)
	dead := map[int]bool{}
	usable := func(nh NextHop) bool { return !dead[nh.Port] }
	if _, ok := tbl.Lookup(dst, flow, usable); !ok {
		t.Fatal("warm-up lookup missed")
	}
	dead[0], dead[1] = true, true
	res, ok := tbl.Lookup(dst, flow, usable)
	if !ok || res.Prefix.Bits() != 24 {
		t.Fatalf("expected the documented stale /24 answer, got %+v, %v", res, ok)
	}
}

// TestFlowCacheRouteMutationInvalidates checks the automatic half of the
// epoch rule: Add/Remove/ReplaceSource must invalidate without any call
// from the owner.
func TestFlowCacheRouteMutationInvalidates(t *testing.T) {
	tbl, dst, flow := cacheFixture(t)
	tbl.EnableFlowCache(0)
	if res, ok := tbl.Lookup(dst, flow, nil); !ok || res.Prefix.Bits() != 24 {
		t.Fatalf("warm-up = %+v, %v", res, ok)
	}
	tbl.Remove(netaddr.MustParsePrefix("10.11.5.0/24"), OSPF)
	res, ok := tbl.Lookup(dst, flow, nil)
	if !ok || res.Prefix.Bits() != 16 {
		t.Fatalf("after Remove = %+v, %v; want /16", res, ok)
	}
	if err := tbl.ReplaceSource(OSPF, []Route{{Prefix: netaddr.MustParsePrefix("10.11.5.0/24"),
		NextHops: []NextHop{{Port: 2}}}}); err != nil {
		t.Fatal(err)
	}
	res, ok = tbl.Lookup(dst, flow, nil)
	if !ok || res.Prefix.Bits() != 24 || res.NextHop.Port != 2 {
		t.Fatalf("after ReplaceSource = %+v, %v; want /24 via port 2", res, ok)
	}
}

// TestFlowCacheCapacityReset fills the cache beyond capacity and checks
// lookups stay correct through the reset.
func TestFlowCacheCapacityReset(t *testing.T) {
	tbl, dst, flow := cacheFixture(t)
	tbl.EnableFlowCache(8)
	for i := 0; i < 100; i++ {
		f := flow
		f.SrcPort = uint16(40000 + i)
		res, ok := tbl.Lookup(dst, f, nil)
		if !ok || res.Prefix.Bits() != 24 {
			t.Fatalf("lookup %d = %+v, %v", i, res, ok)
		}
	}
	if len(tbl.cache) > 8 {
		t.Fatalf("cache grew to %d entries past its cap of 8", len(tbl.cache))
	}
}

// TestLookupMatchesUncached cross-checks cached and uncached tables over a
// spread of destinations and failure states.
func TestLookupMatchesUncached(t *testing.T) {
	plain, _, _ := cacheFixture(t)
	cachedTbl, _, _ := cacheFixture(t)
	cachedTbl.EnableFlowCache(16)
	for _, deadPorts := range []map[int]bool{nil, {0: true}, {0: true, 1: true}} {
		usable := func(nh NextHop) bool { return deadPorts == nil || !deadPorts[nh.Port] }
		plain.InvalidateFlowCache() // harmless on an uncached table
		cachedTbl.InvalidateFlowCache()
		for i := 0; i < 16; i++ {
			dst := netaddr.AddrFrom4(10, 11, byte(i%8), byte(i))
			f := FlowKey{Src: 1, Dst: dst, Proto: 17, SrcPort: uint16(i), DstPort: 9}
			r1, ok1 := plain.Lookup(dst, f, usable)
			// Look up twice so the second hit comes from the cache.
			cachedTbl.Lookup(dst, f, usable)
			r2, ok2 := cachedTbl.Lookup(dst, f, usable)
			if ok1 != ok2 || r1 != r2 {
				t.Fatalf("dst %v dead=%v: plain=(%+v,%v) cached=(%+v,%v)",
					dst, deadPorts, r1, ok1, r2, ok2)
			}
		}
	}
}

// TestFlowCacheBeyondCapMatchesUncached drives more flows than the cache
// holds, across epoch bumps from both route changes and usability flips,
// and checks every lookup against an uncached twin table. It also pins the
// sizing contract: the slot array starts at no more than 16 slots, only
// doubles, and never exceeds the cap.
func TestFlowCacheBeyondCapMatchesUncached(t *testing.T) {
	build := func() *Table {
		tbl := New()
		for i := 0; i < 32; i++ {
			p, err := netaddr.PrefixFrom(netaddr.AddrFrom4(10, 11, byte(i), 0), 24)
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.Add(Route{Prefix: p, Source: OSPF,
				NextHops: []NextHop{{Port: i % 4}, {Port: (i + 1) % 4}, {Port: (i + 2) % 4}}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.Add(Route{Prefix: netaddr.MustParsePrefix("10.11.0.0/16"), Source: Static,
			NextHops: []NextHop{{Port: 10}}}); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	plain, cached := build(), build()
	const capSlots = 256
	cached.EnableFlowCache(capSlots)
	if n := len(cached.cache); n > 16 {
		t.Fatalf("cache starts with %d slots, want at most 16", n)
	}
	dead := map[int]bool{}
	usable := func(nh NextHop) bool { return !dead[nh.Port] }
	lastLen := len(cached.cache)
	for round := 0; round < 12; round++ {
		switch round % 3 {
		case 1: // a port flips: the owner's half of the epoch contract
			dead[round%4] = !dead[round%4]
			plain.InvalidateFlowCache()
			cached.InvalidateFlowCache()
		case 2: // a route changes: the table's own half
			p := netaddr.MustParsePrefix("10.11.3.0/24")
			hops := []NextHop{{Port: round % 4}}
			for _, tbl := range []*Table{plain, cached} {
				if err := tbl.Add(Route{Prefix: p, Source: OSPF, NextHops: hops}); err != nil {
					t.Fatal(err)
				}
			}
		}
		// 4× the cap in distinct flows, each looked up twice so the second
		// lookup can come from the cache.
		for i := 0; i < 4*capSlots; i++ {
			dst := netaddr.AddrFrom4(10, 11, byte(i%32), byte(i/32))
			f := FlowKey{Src: netaddr.AddrFrom4(10, 11, 40, byte(i)), Dst: dst, Proto: 6,
				SrcPort: uint16(1000 + i*7), DstPort: uint16(80 + round)}
			var want Result
			for rep := 0; rep < 2; rep++ {
				r1, ok1 := plain.Lookup(dst, f, usable)
				want = r1
				r2, ok2 := cached.Lookup(dst, f, usable)
				if ok1 != ok2 || r1 != r2 {
					t.Fatalf("round %d flow %d: uncached (%+v, %v) != cached (%+v, %v)", round, i, r1, ok1, r2, ok2)
				}
			}
			// The comparison above means something only if lookups are
			// really served from the cache: the entry just made is live.
			if r, ok := cached.cacheGet(f); !ok || r != want {
				t.Fatalf("round %d flow %d: no live cache entry right after its lookup", round, i)
			}
			n := len(cached.cache)
			if n > capSlots || (n != lastLen && n != 2*lastLen) || n&(n-1) != 0 {
				t.Fatalf("cache resized %d → %d slots (cap %d); want power-of-two doubling up to the cap", lastLen, n, capSlots)
			}
			lastLen = n
		}
	}
	if lastLen != capSlots {
		t.Fatalf("cache ended at %d slots; 4× its cap in flows should have grown it to %d", lastLen, capSlots)
	}
}
