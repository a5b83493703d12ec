package network

import (
	"testing"
	"time"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestBacklogOneHeadEvent pushes 500 packets through one link direction in
// waves that keep it backlogged (each wave arrives before the last has
// drained), between two directly cabled hosts. Only the direction's head
// packet may hold a simulator event, so at most two events are ever pending
// (the head arrival plus the next wave), every packet arrives exactly on
// its serialisation schedule and in send order, and the direction's ring
// stays sized by its peak backlog rather than by the traffic it carried.
func TestBacklogOneHeadEvent(t *testing.T) {
	tp := topo.NewTopology("wire")
	a := tp.AddNode(topo.Node{Name: "a", Kind: topo.Host, NumPorts: 1,
		Addr: netaddr.MustParseAddr("10.11.0.2")})
	b := tp.AddNode(topo.Node{Name: "b", Kind: topo.Host, NumPorts: 1,
		Addr: netaddr.MustParseAddr("10.11.0.3")})
	l, err := tp.AddLink(a, b, topo.HostLink)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	nw, err := New(s, tp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		waves    = 10
		perWave  = 50
		size     = 1000                   // 8 µs on the wire at 1 Gbps
		waveGap  = 300 * time.Microsecond // < 50 × 8 µs: the backlog never drains
		txTime   = 8 * time.Microsecond
		propTime = 5 * time.Microsecond
	)
	// The serialisation schedule: packet k starts when both it has been
	// sent and the transmitter has finished packet k−1.
	var want []sim.Time
	var free sim.Time
	for w := 0; w < waves; w++ {
		sent := sim.Time(w) * sim.Time(waveGap)
		for k := 0; k < perWave; k++ {
			start := max(sent, free)
			free = start.Add(txTime)
			want = append(want, free.Add(propTime))
		}
	}

	var got []sim.Time
	var order []uint16
	maxPending := 0
	nw.SetHostReceiver(b, func(now sim.Time, pkt *Packet) {
		got = append(got, now)
		order = append(order, pkt.Flow.SrcPort)
		maxPending = max(maxPending, s.Pending())
	})
	var next uint16
	var wave func(now sim.Time)
	wave = func(now sim.Time) {
		for k := 0; k < perWave; k++ {
			pkt := nw.NewPacket()
			pkt.Flow = fib.FlowKey{Src: tp.Node(a).Addr, Dst: tp.Node(b).Addr,
				Proto: ProtoUDP, SrcPort: next, DstPort: 9}
			pkt.Size = size
			next++
			nw.SendFromHost(a, pkt)
		}
		maxPending = max(maxPending, s.Pending())
		if next < waves*perWave {
			s.After(waveGap, wave)
		}
	}
	s.At(0, wave)
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("delivered %d packets, want %d (drops %v)", len(got), len(want), nw.Stats().Drops)
	}
	for i := range want {
		if order[i] != uint16(i) {
			t.Fatalf("packet %d arrived in position %d", order[i], i)
		}
		if got[i] != want[i] {
			t.Fatalf("packet %d arrived at %v, serialisation schedule says %v", i, got[i], want[i])
		}
	}
	if maxPending > 2 {
		t.Fatalf("up to %d events pending, want at most 2 (the head arrival and the next wave)", maxPending)
	}
	d := &nw.links[l].dirs[0]
	if peak := d.peakBacklogB / size; peak < 100 {
		t.Fatalf("peak backlog %.0f packets; the test no longer keeps the link backlogged", peak)
	}
	// A wrap-around ring is sized by the peak backlog (under 200 packets
	// here), not by the 500 packets that passed while it never drained.
	if n := cap(d.waiting.buf); n > 256 {
		t.Fatalf("flight ring grew to %d slots for a peak backlog under 200", n)
	}
}

// TestBackloggedForwardNoAlloc extends the zero-allocation claim to a
// backlogged link: once the pools and the ring have warmed, bursts of
// packets queued behind one another through three switch hops allocate
// nothing.
func TestBackloggedForwardNoAlloc(t *testing.T) {
	s, nw, a, dst := forwardChain(t)
	flow := fib.FlowKey{Src: netaddr.MustParseAddr("10.11.0.2"), Dst: dst,
		Proto: ProtoUDP, SrcPort: 40000, DstPort: 9}
	const burst = 64
	run := func() {
		for i := 0; i < burst; i++ {
			pkt := nw.NewPacket()
			pkt.Flow, pkt.Size = flow, 1488
			nw.SendFromHost(a, pkt)
		}
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm pools, rings and caches
		run()
	}
	if allocs := testing.AllocsPerRun(50, run); allocs > 0 {
		t.Fatalf("backlogged forwarding allocates %.2f per burst of %d, want 0", allocs, burst)
	}
	if st := nw.Stats(); st.Delivered != 54*burst {
		t.Fatalf("delivered %d of %d packets", st.Delivered, 54*burst)
	}
}
