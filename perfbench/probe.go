package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/bgp"
	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/failure"
	"repro/internal/fib"
	"repro/internal/network"
	"repro/internal/ospf"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/workload"
)

// probe replays a workload's labs through the program's public
// constructors one call at a time, timing each call and snapshotting the
// layer counters the labs expose when their runs finish. Its results are
// cross-checked against the workload's own outputs, so the counters are
// known to come from the same simulations. Safe for concurrent use.
type probe struct {
	tr *tracer

	mu     sync.Mutex
	callMs map[string][]float64 // span name → per-call wall ms
	// simRunS is the wall time inside Simulator.Run in batch replays;
	// what-if replays count their chaos.RunScenarioOpts calls instead.
	simRunS  float64
	events   uint64
	stats    network.Stats
	routes   int
	spf      [3]int // full, incremental, unchanged
	install  [2]int // full, delta
	timeouts int
	requests int
	violated int
}

func newProbe(tr *tracer) *probe {
	return &probe{tr: tr, callMs: map[string][]float64{}, stats: network.Stats{Drops: map[network.DropCause]uint64{}}}
}

// timed runs one constructor call as a span of the given trace.
func (p *probe) timed(trace, name string, parent int64, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	p.tr.record(0, parent, trace, name, start, end)
	p.mu.Lock()
	p.callMs[name] = append(p.callMs[name], ms(end.Sub(start)))
	p.mu.Unlock()
	return err
}

// meanMs is the mean wall time per call of one constructor.
func (p *probe) meanMs(name string) float64 {
	xs := p.callMs[name]
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// buildLab assembles the same lab core.NewLab would — simulator, data
// plane, bootstrapped control plane, F²Tree backup routes — one public
// call at a time. It also times one core.NewLab call on a fresh copy of
// the topology, for the constructor's own cost.
func (p *probe) buildLab(trace string, parent int64, scheme string, ports int, control string, seed int64) (*core.Lab, error) {
	var tp *topo.Topology
	if err := p.timed(trace, "topo.build", parent, func() (err error) {
		tp, err = exp.BuildTopology(exp.Scheme(scheme), ports)
		return err
	}); err != nil {
		return nil, err
	}
	lab := &core.Lab{Topo: tp}
	if err := p.timed(trace, "network.new", parent, func() (err error) {
		lab.Sim = sim.New(seed)
		lab.Net, err = network.New(lab.Sim, tp, network.Config{})
		return err
	}); err != nil {
		return nil, err
	}
	cp := core.ControlOSPF
	var err error
	switch control {
	case exp.ControlOSPF:
		err = p.timed(trace, "ospf.bootstrap", parent, func() error {
			lab.Domain = ospf.NewDomain(lab.Net, ospf.Config{})
			return lab.Domain.Bootstrap()
		})
	case exp.ControlBGP:
		cp = core.ControlBGP
		err = p.timed(trace, "bgp.bootstrap", parent, func() error {
			lab.BGP = bgp.NewDomain(lab.Net, bgp.Config{})
			return lab.BGP.Bootstrap()
		})
	case exp.ControlCentralized:
		cp = core.ControlCentralized
		err = p.timed(trace, "controller.bootstrap", parent, func() error {
			lab.Controller = controller.New(lab.Net, controller.Config{})
			return lab.Controller.Bootstrap()
		})
	default:
		err = fmt.Errorf("probe: unknown control plane %q", control)
	}
	if err != nil {
		return nil, err
	}
	if len(tp.Rings) > 0 {
		if err := p.timed(trace, "core.backup_apply", parent, func() error {
			plan, err := core.PlanBackupRoutes(tp)
			if err != nil {
				return err
			}
			lab.Plan = plan
			return core.Apply(lab.Net, plan)
		}); err != nil {
			return nil, err
		}
	}
	fresh, err := exp.BuildTopology(exp.Scheme(scheme), ports)
	if err != nil {
		return nil, err
	}
	if err := p.timed(trace, "core.newlab", parent, func() error {
		_, err := core.NewLab(core.LabConfig{Topology: fresh, Seed: seed, ControlPlane: cp})
		return err
	}); err != nil {
		return nil, err
	}
	return lab, nil
}

// run advances a lab's simulator, timing the call.
func (p *probe) run(lab *core.Lab, horizon sim.Time) error {
	start := time.Now()
	err := lab.Sim.Run(horizon)
	p.mu.Lock()
	p.simRunS += time.Since(start).Seconds()
	p.mu.Unlock()
	return err
}

// snapshot adds a finished lab's counters to the probe totals.
func (p *probe) snapshot(lab *core.Lab) {
	st := lab.Net.Stats()
	routes := 0
	for _, id := range lab.Topo.LiveNodes() {
		if t := lab.Net.Table(id); t != nil {
			routes += t.Len()
		}
	}
	var spf [3]int
	var inst [2]int
	if lab.Domain != nil {
		spf[0], spf[1], spf[2] = lab.Domain.SPFTotals()
		inst[0], inst[1] = lab.Domain.InstallTotals()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events += lab.Sim.EventsRun()
	p.stats.Sent += st.Sent
	p.stats.Delivered += st.Delivered
	for c, n := range st.Drops {
		p.stats.Drops[c] += n
	}
	p.routes += routes
	for i := range spf {
		p.spf[i] += spf[i]
	}
	for i := range inst {
		p.install[i] += inst[i]
	}
}

// Recovery-run constants, as exp.RunRecovery defaults them.
const (
	recFailAt   = 380 * sim.Millisecond
	recHorizon  = 2 * sim.Second
	recSegment  = 1448
	recInterval = 100 * time.Microsecond
)

// replayRecovery re-runs one Fig 4 spec — the paced UDP flow and the TCP
// flow, each on a fresh lab — and checks the packet and RTO counts against
// the metrics the campaign recorded for it.
func (p *probe) replayRecovery(s campaign.Spec, want campaign.Metrics) error {
	cond, err := campaign.ParseCondition(s.Condition)
	if err != nil {
		return err
	}
	trace := "replay " + s.Key()
	parent := p.tr.id()
	start := time.Now()
	defer func() { p.tr.record(parent, 0, trace, "exp.replay_recovery", start, time.Now()) }()

	// The paced UDP flow.
	lab, err := p.buildLab(trace, parent, s.Scheme, s.Ports, exp.ControlOSPF, s.Seed())
	if err != nil {
		return err
	}
	src, dst := lab.LeftmostHost(), lab.RightmostHost()
	srcStack, err := transport.NewStack(lab.Net, src)
	if err != nil {
		return err
	}
	dstStack, err := transport.NewStack(lab.Net, dst)
	if err != nil {
		return err
	}
	sink, err := dstStack.NewUDPSink(9)
	if err != nil {
		return err
	}
	source := srcStack.StartUDPSource(dstStack.Addr(), 9, recSegment, recInterval)
	condErr := injectOnPath(lab, cond, src, source.FlowKey)
	if err := p.run(lab, recHorizon); err != nil {
		return err
	}
	if *condErr != nil {
		return *condErr
	}
	source.Stop()
	p.snapshot(lab)
	sent, lost := source.Sent(), source.Sent()-uint64(len(sink.Arrivals))

	// The paced TCP flow.
	lab, err = p.buildLab(trace, parent, s.Scheme, s.Ports, exp.ControlOSPF, s.Seed())
	if err != nil {
		return err
	}
	src, dst = lab.LeftmostHost(), lab.RightmostHost()
	if srcStack, err = transport.NewStack(lab.Net, src); err != nil {
		return err
	}
	if dstStack, err = transport.NewStack(lab.Net, dst); err != nil {
		return err
	}
	if err := dstStack.Listen(80, func(_ sim.Time, c *transport.Conn) {
		c.OnData(func(sim.Time, int64) {})
	}); err != nil {
		return err
	}
	conn, err := srcStack.Dial(dstStack.Addr(), 80)
	if err != nil {
		return err
	}
	conn.OnEstablished(func(sim.Time) {
		lab.Sim.Ticker(recInterval, func(sim.Time) { conn.Send(recSegment) })
	})
	condErr = injectOnPath(lab, cond, src, conn.FlowKey)
	if err := p.run(lab, recHorizon); err != nil {
		return err
	}
	if *condErr != nil {
		return *condErr
	}
	p.snapshot(lab)
	p.mu.Lock()
	p.timeouts += conn.Timeouts()
	p.mu.Unlock()

	got := campaign.Metrics{
		"packets_sent": float64(sent), "packets_lost": float64(lost),
		"tcp_timeouts": float64(conn.Timeouts()),
	}
	for k, v := range got {
		if want[k] != v {
			return fmt.Errorf("replay of %s: %s = %v, campaign recorded %v", s.Key(), k, v, want[k])
		}
	}
	return nil
}

// injectOnPath fails the condition's links on the flow's current path at
// the injection time, as exp.RunRecovery does. The returned error slot is
// filled if the path could not be resolved.
func injectOnPath(lab *core.Lab, cond failure.Condition, src topo.NodeID, flow func() fib.FlowKey) *error {
	var condErr error
	lab.Sim.At(recFailAt, func(sim.Time) {
		path, err := lab.Net.PathTrace(src, flow())
		if err != nil {
			condErr = err
			return
		}
		links, err := failure.ConditionLinks(lab.Topo, cond, path)
		if err != nil {
			condErr = err
			return
		}
		for _, id := range links {
			lab.Net.FailLink(id)
		}
	})
	return &condErr
}

// replayPA re-runs one Fig 6 spec and checks its request, completion and
// failure counts against the campaign's metrics.
func (p *probe) replayPA(s campaign.Spec, want campaign.Metrics) error {
	trace := "replay " + s.Key()
	parent := p.tr.id()
	start := time.Now()
	defer func() { p.tr.record(parent, 0, trace, "exp.replay_pa", start, time.Now()) }()

	lab, err := p.buildLab(trace, parent, s.Scheme, s.Ports, exp.ControlOSPF, s.Seed())
	if err != nil {
		return err
	}
	stacks := make([]*transport.Stack, 0, lab.Topo.HostCount())
	for _, h := range lab.Topo.NodesOfKind(topo.Host) {
		st, err := transport.NewStack(lab.Net, h)
		if err != nil {
			return err
		}
		stacks = append(stacks, st)
	}
	pa, err := workload.NewPartitionAggregate(lab.Net, stacks, workload.DefaultPartitionAggregateConfig())
	if err != nil {
		return err
	}
	bgCfg, err := workload.DefaultBackgroundConfig()
	if err != nil {
		return err
	}
	bg, err := workload.NewBackground(lab.Net, stacks, bgCfg)
	if err != nil {
		return err
	}
	fcfg, err := failure.DefaultRandomConfig(s.Channels)
	if err != nil {
		return err
	}
	proc, err := failure.NewProcess(lab.Net, fcfg)
	if err != nil {
		return err
	}
	pa.Start()
	bg.Start()
	proc.Start()
	window := sim.Time(s.DurationMS) * sim.Millisecond
	lab.Sim.At(window, func(sim.Time) {
		pa.Stop()
		bg.Stop()
		proc.Stop()
	})
	const grace = 10 * sim.Second // exp.PAOptions' default
	if err := p.run(lab, window+grace); err != nil {
		return err
	}
	p.snapshot(lab)
	_, requests := workload.MissRatio(pa.Results(), 250*time.Millisecond)
	completed := len(workload.CompletionTimes(pa.Results()))
	p.mu.Lock()
	p.requests += requests
	p.mu.Unlock()

	got := campaign.Metrics{
		"requests": float64(requests), "completed": float64(completed),
		"failures": float64(proc.Count()),
	}
	for k, v := range got {
		if want[k] != v {
			return fmt.Errorf("replay of %s: %s = %v, campaign recorded %v", s.Key(), k, v, want[k])
		}
	}
	return nil
}

// replayWhatIf builds one what-if query's lab constructor by constructor,
// then re-runs its scenario through chaos.RunScenarioOpts — the call the
// service makes — snapshotting the quiesced lab. It returns the run's
// trace hash and worst delivery gap for comparison with the service.
func (p *probe) replayWhatIf(q streamQuery) (string, int64, error) {
	c := q.Query
	trace := "replay " + q.key()
	parent := p.tr.id()
	start := time.Now()
	defer func() { p.tr.record(parent, 0, trace, "serve.replay_whatif", start, time.Now()) }()

	if _, err := p.buildLab(trace, parent, c.Scheme, c.Ports, c.Control, 1); err != nil {
		return "", 0, err
	}
	// The scenario the service assembles from the query with its defaults
	// filled: seed 1, failure at 300 ms, derived horizon and budget.
	sc := &chaos.Scenario{
		Scheme: c.Scheme, Ports: c.Ports, Control: c.Control, Seed: 1,
		Faults: []chaos.Fault{{Kind: chaos.FaultLinkDown, AtMs: 300, A: c.Link.A, B: c.Link.B}},
	}
	var v *chaos.Verdict
	err := p.timed(trace, "chaos.run", parent, func() (err error) {
		v, err = chaos.RunScenarioOpts(sc, chaos.RunOpts{OnFinish: p.snapshot})
		return err
	})
	if err != nil {
		return "", 0, err
	}
	var worst int64
	for _, f := range v.Flows {
		worst = max(worst, f.MaxGapMs)
	}
	p.mu.Lock()
	p.violated += len(v.Violations)
	p.mu.Unlock()
	if len(v.Violations) > 0 {
		return "", 0, fmt.Errorf("replay of %s: oracle violations %v", q.key(), v.Violations)
	}
	return v.TraceHash, worst, nil
}

// layerMetrics renders the probe's counters and per-call timings.
func (p *probe) layerMetrics(out metricSet) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out.add("sim.events", float64(p.events), "count")
	runS := p.simRunS
	for _, x := range p.callMs["chaos.run"] {
		runS += x / 1000
	}
	eps := 0.0
	if runS > 0 {
		eps = float64(p.events) / runS
	}
	out.add("sim.events_per_s", eps, "1/s")
	out.add("network.sent", float64(p.stats.Sent), "count")
	out.add("network.delivered", float64(p.stats.Delivered), "count")
	for _, c := range dropCauses {
		out.add(dropMetric(c), float64(p.stats.Drops[c]), "count")
	}
	out.add("fib.routes", float64(p.routes), "count")
	out.add("transport.tcp_timeouts", float64(p.timeouts), "count")
	out.add("workload.requests", float64(p.requests), "count")
	out.add("ospf.spf_full", float64(p.spf[0]), "count")
	out.add("ospf.spf_incremental", float64(p.spf[1]), "count")
	out.add("ospf.spf_unchanged", float64(p.spf[2]), "count")
	out.add("ospf.install_full", float64(p.install[0]), "count")
	out.add("ospf.install_delta", float64(p.install[1]), "count")
	for _, name := range []string{"ospf.bootstrap", "bgp.bootstrap", "controller.bootstrap",
		"topo.build", "core.newlab", "network.new", "core.backup_apply", "chaos.run"} {
		out.add(name+"_ms", p.meanMs(name), "ms")
	}
	out.add("chaos.violations", float64(p.violated), "count")
}

// dropCauses is every network.DropCause, in declaration order.
var dropCauses = []network.DropCause{
	network.DropNoRoute, network.DropLinkDown, network.DropQueueOverflow,
	network.DropTTLExpired, network.DropNotForMe, network.DropInjected,
}

// dropMetric names a drop cause's counter, e.g. network.drops_link_down.
func dropMetric(c network.DropCause) string {
	return "network.drops_" + strings.ReplaceAll(c.String(), "-", "_")
}
