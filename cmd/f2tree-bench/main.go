// Command f2tree-bench measures the simulator's hot path — event
// scheduling, packet forwarding, FIB lookup (hit, fallback and cached) and
// the end-to-end Fig 4 regeneration — and emits BENCH_hotpath.json with the
// committed pre-optimization baseline alongside the freshly measured
// numbers.
//
// Usage:
//
//	f2tree-bench -out BENCH_hotpath.json            # full run
//	f2tree-bench -check -benchtime 100ms -fig4=false # CI smoke + budget gate
//
// With -check the command exits non-zero if any benchmark's allocs/op
// exceeds its committed budget, or if the packet-forwarding benchmark no
// longer shows a ≥2× allocation reduction over the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// benchResult is one benchmark's measured figures.
type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// snapshot is one side (baseline or current) of the report.
type snapshot struct {
	Note        string                 `json:"note"`
	Benchmarks  map[string]benchResult `json:"benchmarks"`
	Fig4Seconds float64                `json:"fig4_seconds,omitempty"`
}

// report is the BENCH_hotpath.json schema.
type report struct {
	Bench              string             `json:"bench"`
	GoVersion          string             `json:"go"`
	GOMAXPROCS         int                `json:"gomaxprocs"`
	BudgetsAllocsPerOp map[string]int64   `json:"budgets_allocs_per_op"`
	Baseline           snapshot           `json:"baseline"`
	Current            snapshot           `json:"current"`
	Speedup            map[string]float64 `json:"speedup"`
}

// budgets are the committed allocs/op ceilings CI enforces on the core
// hot-path benchmarks. Raising one is an explicit, reviewed decision.
var budgets = map[string]int64{
	"sim_schedule":        0,
	"sim_cancel":          0,
	"net_forward":         1,
	"net_forward_backlog": 0,
	"fib_lookup_hit":      0,
	"fib_lookup_fallback": 0,
	"fib_lookup_cached":   0,
}

// baseline is the pre-optimization measurement (PR 3 seed: container/heap
// event queue, per-hop closures, unpooled packets, 33-length FIB scan),
// recorded on the same class of machine CI baselines come from. It is
// deliberately a compile-time constant: the "before" in every before/after
// this tool prints.
var baseline = snapshot{
	Note: "pre-optimization (container/heap event queue, per-hop closures, unpooled packets, full 0..32 FIB scan); Intel Xeon 2.10GHz, go1.24, GOMAXPROCS=1",
	Benchmarks: map[string]benchResult{
		"sim_schedule":        {NsPerOp: 53.07, AllocsPerOp: 1, BytesPerOp: 32},
		"sim_cancel":          {NsPerOp: 56.42, AllocsPerOp: 1, BytesPerOp: 32},
		"net_forward":         {NsPerOp: 1007, AllocsPerOp: 15, BytesPerOp: 640},
		"fib_lookup_hit":      {NsPerOp: 79.11, AllocsPerOp: 0, BytesPerOp: 0},
		"fib_lookup_fallback": {NsPerOp: 148.0, AllocsPerOp: 0, BytesPerOp: 0},
		// The cached lookup path did not exist pre-optimization; its
		// baseline is the uncached hit it replaces.
		"fib_lookup_cached": {NsPerOp: 79.11, AllocsPerOp: 0, BytesPerOp: 0},
		// Backlogged forwarding was not measured pre-optimization; its
		// baseline is the per-packet forwarding it extends.
		"net_forward_backlog": {NsPerOp: 1007, AllocsPerOp: 15, BytesPerOp: 640},
	},
	Fig4Seconds: 4.517,
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "f2tree-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("f2tree-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", "BENCH_hotpath.json", "output JSON file (empty = stdout only)")
		check     = fs.Bool("check", false, "enforce the committed allocs/op budgets; non-zero exit on regression")
		benchtime = fs.Duration("benchtime", time.Second, "target time per benchmark")
		withFig4  = fs.Bool("fig4", true, "include the end-to-end fig4 regeneration timing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	// testing.Benchmark honours the test.benchtime flag; register the
	// testing flags and set it so -benchtime works outside `go test`.
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return err
	}

	cur := snapshot{
		Note:       fmt.Sprintf("measured by f2tree-bench, %s, GOMAXPROCS=%d", runtime.Version(), runtime.GOMAXPROCS(0)),
		Benchmarks: map[string]benchResult{},
	}
	for _, b := range hotpathBenchmarks() {
		fmt.Fprintf(stderr, "bench %-19s ... ", b.name)
		res := measure(b.fn)
		cur.Benchmarks[b.name] = res
		fmt.Fprintf(stderr, "%10.1f ns/op  %3d allocs/op  %5d B/op\n",
			res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
	}
	if *withFig4 {
		fmt.Fprintf(stderr, "bench %-19s ... ", "fig4_e2e")
		begin := time.Now() //f2tree:wallclock measures the real runtime of the simulator itself, by design
		if _, err := exp.RunFig4(42); err != nil {
			return fmt.Errorf("fig4: %w", err)
		}
		cur.Fig4Seconds = math.Round(time.Since(begin).Seconds()*1000) / 1000 //f2tree:wallclock paired with the Now above
		fmt.Fprintf(stderr, "%10.2f s\n", cur.Fig4Seconds)
	}

	rep := report{
		Bench:              "hotpath",
		GoVersion:          runtime.Version(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		BudgetsAllocsPerOp: budgets,
		Baseline:           baseline,
		Current:            cur,
		Speedup:            map[string]float64{},
	}
	//f2tree:unordered per-key writes into a map that is rendered as sorted JSON
	for name, b := range baseline.Benchmarks {
		if c, ok := cur.Benchmarks[name]; ok && c.NsPerOp > 0 {
			rep.Speedup[name] = round2(b.NsPerOp / c.NsPerOp)
		}
	}
	if cur.Fig4Seconds > 0 {
		rep.Speedup["fig4_e2e"] = round2(baseline.Fig4Seconds / cur.Fig4Seconds)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	} else {
		stdout.Write(buf)
	}

	if *check {
		return enforce(stdout, cur)
	}
	return nil
}

// enforce applies the committed budgets to a measured snapshot.
func enforce(w io.Writer, cur snapshot) error {
	var failed int
	for _, b := range hotpathBenchmarks() {
		res, ok := cur.Benchmarks[b.name]
		if !ok {
			continue
		}
		budget := budgets[b.name]
		status := "ok"
		if res.AllocsPerOp > budget {
			status = "REGRESSION"
			failed++
		}
		fmt.Fprintf(w, "check %-19s allocs/op %3d (budget %d) %s\n", b.name, res.AllocsPerOp, budget, status)
	}
	base := baseline.Benchmarks["net_forward"].AllocsPerOp
	if cur.Benchmarks["net_forward"].AllocsPerOp*2 > base {
		failed++
		fmt.Fprintf(w, "check net_forward 2x-reduction vs baseline (%d) FAILED\n", base)
	}
	if failed > 0 {
		return fmt.Errorf("%d allocs/op budget check(s) failed", failed)
	}
	fmt.Fprintln(w, "all allocs/op budgets hold")
	return nil
}

// measure runs fn under the standard benchmark harness.
func measure(fn func(b *testing.B)) benchResult {
	r := testing.Benchmark(fn)
	return benchResult{
		NsPerOp:     round2(float64(r.T.Nanoseconds()) / float64(r.N)),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// round2 keeps the committed JSON readable (two decimals are already below
// run-to-run noise).
func round2(x float64) float64 { return math.Round(x*100) / 100 }

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// hotpathBenchmarks defines the core hot-path suite; the names are the keys
// of the committed budgets and of both JSON snapshots.
func hotpathBenchmarks() []namedBench {
	return []namedBench{
		{"sim_schedule", benchSimSchedule},
		{"sim_cancel", benchSimCancel},
		{"net_forward", benchNetForward},
		{"net_forward_backlog", benchNetForwardBacklog},
		{"fib_lookup_hit", benchFibLookupHit},
		{"fib_lookup_fallback", benchFibLookupFallback},
		{"fib_lookup_cached", benchFibLookupCached},
	}
}

// benchSimSchedule mirrors sim.BenchmarkScheduleAndRun: a self-rescheduling
// event chain, the pattern of per-hop forwarding.
func benchSimSchedule(b *testing.B) {
	s := sim.New(1)
	remaining := b.N
	var tick sim.Event
	tick = func(now sim.Time) {
		if remaining <= 0 {
			return
		}
		remaining--
		s.After(time.Microsecond, tick)
	}
	s.After(time.Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
}

// benchSimCancel is the timer-churn pattern (TCP retransmit restart).
func benchSimCancel(b *testing.B) {
	s := sim.New(1)
	// Warm the item pool so steady-state churn is measured.
	s.Cancel(s.After(time.Second, func(sim.Time) {}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cancel(s.After(time.Second, func(sim.Time) {}))
	}
}

// forwardChain builds the same static-routed 3-switch chain as the
// internal/network benchmark: host a → tor1 → agg → tor2 → host b.
func forwardChain() (*sim.Simulator, *network.Network, topo.NodeID, netaddr.Addr, error) {
	tp := topo.NewTopology("chain")
	t1 := tp.AddNode(topo.Node{Name: "tor1", Kind: topo.ToR, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.12.0.1"), Subnet: netaddr.MustParsePrefix("10.11.0.0/24")})
	ag := tp.AddNode(topo.Node{Name: "agg", Kind: topo.Agg, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.12.0.2")})
	t2 := tp.AddNode(topo.Node{Name: "tor2", Kind: topo.ToR, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.12.0.3"), Subnet: netaddr.MustParsePrefix("10.11.1.0/24")})
	a := tp.AddNode(topo.Node{Name: "a", Kind: topo.Host, NumPorts: 1,
		Addr: netaddr.MustParseAddr("10.11.0.2")})
	bh := tp.AddNode(topo.Node{Name: "b", Kind: topo.Host, NumPorts: 1,
		Addr: netaddr.MustParseAddr("10.11.1.2")})
	for _, pair := range [][2]topo.NodeID{{a, t1}, {bh, t2}} {
		if _, err := tp.AddLink(pair[0], pair[1], topo.HostLink); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	l1, err := tp.AddLink(t1, ag, topo.EdgeLink)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	l2, err := tp.AddLink(ag, t2, topo.EdgeLink)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	s := sim.New(1)
	nw, err := network.New(s, tp, network.Config{})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	dstNet := netaddr.MustParsePrefix("10.11.1.0/24")
	p1, _ := tp.Link(l1).PortOf(t1)
	if err := nw.Table(t1).Add(fib.Route{Prefix: dstNet, Source: fib.Static,
		NextHops: []fib.NextHop{{Port: p1, Via: tp.Node(ag).Addr}}}); err != nil {
		return nil, nil, 0, 0, err
	}
	p2, _ := tp.Link(l2).PortOf(ag)
	if err := nw.Table(ag).Add(fib.Route{Prefix: dstNet, Source: fib.Static,
		NextHops: []fib.NextHop{{Port: p2, Via: tp.Node(t2).Addr}}}); err != nil {
		return nil, nil, 0, 0, err
	}
	return s, nw, a, tp.Node(bh).Addr, nil
}

// benchNetForward is the packet-forwarding benchmark the ≥2× allocation
// reduction is gated on: one op forwards one packet across three switch
// hops end to end.
func benchNetForward(b *testing.B) {
	s, nw, a, dst, err := forwardChain()
	if err != nil {
		b.Fatal(err)
	}
	flow := fib.FlowKey{Src: netaddr.MustParseAddr("10.11.0.2"), Dst: dst,
		Proto: network.ProtoUDP, SrcPort: 40000, DstPort: 9}
	send := func() {
		pkt := nw.NewPacket()
		pkt.Flow, pkt.Size = flow, 1488
		nw.SendFromHost(a, pkt)
		if err := s.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ { // warm the pools outside the timed region
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// benchNetForwardBacklog is net_forward with the first link kept
// backlogged: packets go out in bursts of 64, so all but the first of each
// burst queue behind one another and wait in the link direction's ring
// rather than in the event heap. One op is one packet end to end.
func benchNetForwardBacklog(b *testing.B) {
	s, nw, a, dst, err := forwardChain()
	if err != nil {
		b.Fatal(err)
	}
	flow := fib.FlowKey{Src: netaddr.MustParseAddr("10.11.0.2"), Dst: dst,
		Proto: network.ProtoUDP, SrcPort: 40000, DstPort: 9}
	const burst = 64
	send := func(n int) {
		for i := 0; i < n; i++ {
			pkt := nw.NewPacket()
			pkt.Flow, pkt.Size = flow, 1488
			nw.SendFromHost(a, pkt)
		}
		if err := s.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm the pools and the ring outside the timed region
		send(burst)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= burst {
		send(min(left, burst))
	}
}

// fibTable builds the route mix of an F²Tree switch at the k=24 scale: 242
// OSPF /24s plus the two static backup routes.
func fibTable(b *testing.B) *fib.Table {
	tbl := fib.New()
	for i := 0; i < 242; i++ {
		p, err := netaddr.PrefixFrom(netaddr.AddrFrom4(10, 11, byte(i), 0), 24)
		if err != nil {
			b.Fatal(err)
		}
		if err := tbl.Add(fib.Route{Prefix: p, Source: fib.OSPF,
			NextHops: []fib.NextHop{{Port: i % 4}, {Port: (i + 1) % 4}}}); err != nil {
			b.Fatal(err)
		}
	}
	for i, spec := range []string{"10.11.0.0/16", "10.10.0.0/15"} {
		if err := tbl.Add(fib.Route{Prefix: netaddr.MustParsePrefix(spec), Source: fib.Static,
			NextHops: []fib.NextHop{{Port: 10 + i}}}); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

func benchFibLookupHit(b *testing.B) {
	tbl := fibTable(b)
	dst := netaddr.AddrFrom4(10, 11, 121, 9)
	flow := fib.FlowKey{Src: 1, Dst: dst, Proto: 17, SrcPort: 9, DstPort: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Lookup(dst, flow, nil); !ok {
			b.Fatal("miss")
		}
	}
}

func benchFibLookupFallback(b *testing.B) {
	tbl := fibTable(b)
	dst := netaddr.AddrFrom4(10, 11, 9, 9)
	flow := fib.FlowKey{Src: 1, Dst: dst, Proto: 17, SrcPort: 9, DstPort: 9}
	usable := func(nh fib.NextHop) bool { return nh.Port >= 10 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, ok := tbl.Lookup(dst, flow, usable)
		if !ok || res.NextHop.Port < 10 {
			b.Fatal("fallback failed")
		}
	}
}

func benchFibLookupCached(b *testing.B) {
	tbl := fibTable(b)
	tbl.EnableFlowCache(0)
	dst := netaddr.AddrFrom4(10, 11, 121, 9)
	flow := fib.FlowKey{Src: 1, Dst: dst, Proto: 17, SrcPort: 9, DstPort: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Lookup(dst, flow, nil); !ok {
			b.Fatal("miss")
		}
	}
}
