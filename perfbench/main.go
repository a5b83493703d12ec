// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed window in its own process, checks the simulated
// outputs, and prints one JSON result as its last line of output:
//
//	perfbench --workload recovery-sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a separate traced run. perfbench/run.py
// builds it from source and runs it; README.md in this directory explains
// the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// processStart is the earliest instant the benchmark can observe; the
// first set-up is timed from it.
var processStart = time.Now()

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// minBatchRuns is the fewest runs a batch measurement takes, a fifth more
// than a p90 needs, so a slower program or a noisy host lengthens the run
// rather than leaving the percentile too few samples to report.
const minBatchRuns = 12 * minBeyond

// traceRounds is how many whole rounds of the what-if stream a traced run
// measures, untraced and then traced. Whole rounds give every seed's traced
// pass the same mix of configurations.
const traceRounds = 2

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a result's metrics.
type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []struct{ name, unit string }{
	{"runs_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// cpuModules are the program modules whose CPU share a traced run reports;
// samples in any other module count as other.cpu_share.
var cpuModules = []string{
	"sim", "network", "fib", "transport", "workload", "ospf", "bgp",
	"controller", "chaos", "campaign", "serve", "core", "topo", "exp",
	"failure", "metrics", "detect", "netaddr", "detsort",
}

// perLayer lists the per-layer metrics every traced run reports. A layer
// the workload does not run reports 0.
func perLayer() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	for _, m := range cpuModules {
		add(m+".cpu_share", "fraction")
	}
	add("other.cpu_share", "fraction")
	add("bench.cpu_share", "fraction")
	add("runtime.bg_share", "fraction")
	add("sim.events", "count")
	add("sim.events_per_s", "1/s")
	add("network.sent", "count")
	add("network.delivered", "count")
	for _, c := range dropCauses {
		add(dropMetric(c), "count")
	}
	add("fib.routes", "count")
	add("transport.tcp_timeouts", "count")
	add("workload.requests", "count")
	for _, n := range []string{"spf_full", "spf_incremental", "spf_unchanged", "install_full", "install_delta"} {
		add("ospf."+n, "count")
	}
	for _, n := range []string{"ospf.bootstrap_ms", "bgp.bootstrap_ms", "controller.bootstrap_ms",
		"topo.build_ms", "core.newlab_ms", "network.new_ms", "core.backup_apply_ms", "chaos.run_ms"} {
		add(n, "ms")
	}
	add("chaos.violations", "count")
	add("campaign.run_ms_p50", "ms")
	add("campaign.run_ms_max", "ms")
	add("campaign.worker_idle_frac", "fraction")
	for _, n := range []string{"hits", "misses", "coalesced", "failures"} {
		add("serve."+n, "count")
	}
	add("serve.hit_ratio", "fraction")
	add("serve.pool_queued_max", "count")
	add("bench.gen_lag_ms_max", "ms")
	add("runtime.alloc_mb_per_run", "MB")
	add("runtime.gc_cycles", "count")
	add("bench.trace_overhead_frac", "fraction")
	add("bench.trace_overhead_s", "s")
	return out
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload    = flag.String("workload", "", "recovery-sweep, pa-churn or whatif-serve")
		seed        = flag.Int64("seed", defaultSeed, "workload seed")
		seconds     = flag.Int("seconds", 30, "measurement window in seconds")
		traceFlag   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		writeGolden = flag.Bool("write-golden", false, "recompute the workload's golden digests into perfbench/golden.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	workers := runtime.NumCPU()
	if *writeGolden {
		if err := writeGoldenFile(filepath.Join("perfbench", "golden.json"), *workload, workers); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	window := time.Duration(*seconds) * time.Second
	seedKey := strconv.FormatInt(*seed, 10)
	var res *result
	var rep report
	switch *workload {
	case wlRecovery, wlPA:
		b := &batchBench{workload: *workload, seed: *seed, workers: workers, golden: g.Batches[*workload][seedKey]}
		if *traceFlag == 1 {
			res, rep, err = traceBatch(b, window)
		} else {
			res, rep, err = measureBatch(b, window)
		}
	case wlWhatIf:
		w := &whatifBench{seed: *seed, workers: workers, golden: g.Queries[seedKey]}
		if *traceFlag == 1 {
			res, rep, err = traceWhatIf(w, window)
		} else {
			res, rep, err = measureWhatIf(w, window)
		}
	default:
		err = fmt.Errorf("unknown workload %q (want %s, %s or %s)", *workload, wlRecovery, wlPA, wlWhatIf)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.Host = fingerprintHost(".")
	rep.Workload, rep.Seed, rep.Seconds, rep.Trace = *workload, *seed, *seconds, *traceFlag
	rep.Result = res
	if err := rep.write(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, v := range []any{
		map[string]any{"host": rep.Host, "samples": rep.Samples, "genLagMsMax": rep.GenLagMsMax},
		res, // the result is the last line
	} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Println(string(b))
	}
	return 0
}

// report is the full record of one run, written under .bench_build/traces:
// the host fingerprint, the result, percentile sample counts and, for a
// traced run, every span.
type report struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Seconds  int                 `json:"seconds"`
	Trace    int                 `json:"trace"`
	Host     hostInfo            `json:"host"`
	Result   *result             `json:"result"`
	Samples  map[string]Quantile `json:"samples,omitempty"`
	SetupS   []float64           `json:"setupS,omitempty"`
	// GenLagMsMax is how late the open-loop generator sent any query.
	GenLagMsMax float64 `json:"genLagMsMax,omitempty"`
	// Detail is per-batch throughput or per-query outcomes.
	Detail  any    `json:"detail,omitempty"`
	Spans   []span `json:"spans,omitempty"`
	profile []byte
}

func (r *report) write() error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, r.Trace))
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if r.profile != nil {
		return os.WriteFile(base+".pprof", r.profile, 0o644)
	}
	return nil
}

// timeSetups runs set-up setupReps times and returns the median seconds;
// the first repetition is timed from process start.
func timeSetups(setup func() error) (float64, []float64, error) {
	var xs []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if err := setup(); err != nil {
			return 0, nil, fmt.Errorf("set-up: %w", err)
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return medianOf(xs), xs, nil
}

// latencyMetrics adds query_p50_ms and query_p90_ms, refusing percentiles
// with too few samples beyond them.
func latencyMetrics(out metricSet, samples map[string]Quantile, xs []float64) error {
	for _, p := range []struct {
		name string
		p    float64
	}{{"query_p50_ms", 50}, {"query_p90_ms", 90}} {
		q, err := Percentile(xs, p.p)
		if err != nil {
			return fmt.Errorf("%s: %w (lengthen --seconds)", p.name, err)
		}
		out.add(p.name, q.Value, "ms")
		samples[p.name] = q
	}
	return nil
}

// addPeakRSS adds the process's peak resident set so far.
func addPeakRSS(out metricSet) error {
	rss, ok := peakRSSMB()
	if !ok {
		return fmt.Errorf("cannot read VmHWM from /proc/self/status")
	}
	out.add("peak_rss_mb", rss, "MB")
	return nil
}

func measureBatch(b *batchBench, window time.Duration) (*result, report, error) {
	rep := report{Samples: map[string]Quantile{}}
	setupS, reps, err := timeSetups(b.setup)
	if err != nil {
		return nil, rep, err
	}
	rep.SetupS = reps
	if err := b.measure(window, minBatchRuns); err != nil {
		return nil, rep, err
	}
	b.recheck()
	out := metricSet{}
	// The median batch, so a burst of interference from outside the
	// process moves a few batches rather than the whole figure.
	out.add("runs_per_s", medianOf(b.batchRate), "1/s")
	rep.Detail = b.batchRate
	if err := latencyMetrics(out, rep.Samples, b.runMs); err != nil {
		return nil, rep, err
	}
	out.add("setup_s", setupS, "s")
	if err := addPeakRSS(out); err != nil {
		return nil, rep, err
	}
	return b.tally.result(out), rep, nil
}

func measureWhatIf(w *whatifBench, window time.Duration) (*result, report, error) {
	rep := report{Samples: map[string]Quantile{}}
	var items []streamQuery
	var due []time.Duration
	setupS, reps, err := timeSetups(func() error {
		if err := w.setup(); err != nil {
			return err
		}
		n := streamLength(window)
		items, due = genQueries(w.seed, n, w.links), genDue(w.seed, n)
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	defer w.svc.close()
	rep.SetupS = reps
	p := w.drive(items, due, nil)
	w.check(p)
	w.recheck(p)
	out := metricSet{}
	// Open loop: this is the offered rate unless the service falls behind
	// the schedule; the latency percentiles are what a slower program moves.
	out.add("runs_per_s", float64(p.answered())/p.wall.Seconds(), "1/s")
	rep.Detail = p.detail()
	if err := latencyMetrics(out, rep.Samples, p.latencies()); err != nil {
		return nil, rep, err
	}
	out.add("setup_s", setupS, "s")
	rep.GenLagMsMax = ms(p.lagMax)
	if err := addPeakRSS(out); err != nil {
		return nil, rep, err
	}
	return w.tally.result(out), rep, nil
}

// traced brackets a traced pass: CPU profile, allocation and GC counters.
type traced struct {
	buf    bytes.Buffer
	before runtime.MemStats
	after  runtime.MemStats
	start  time.Time
	wall   time.Duration
}

func (t *traced) begin() error {
	runtime.ReadMemStats(&t.before)
	t.start = time.Now()
	return pprof.StartCPUProfile(&t.buf)
}

func (t *traced) end() {
	pprof.StopCPUProfile()
	t.wall = time.Since(t.start)
	runtime.ReadMemStats(&t.after)
}

// layerMetrics fills every per-layer metric: zeros first, so layers the
// workload does not run still report, then the profile's CPU shares, the
// runtime counters and the tracing overhead against the untraced pass.
func (t *traced) layerMetrics(units int, untraced time.Duration) (metricSet, error) {
	out := metricSet{}
	for _, m := range perLayer() {
		out.add(m.name, 0, m.unit)
	}
	shares, n, err := cpuShares(t.buf.Bytes())
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	known := map[string]bool{bucketBench: true, bucketRuntime: true}
	for _, m := range cpuModules {
		known[m] = true
		out.add(m+".cpu_share", shares[m], "fraction")
	}
	other := 0.0
	for m, s := range shares {
		if !known[m] {
			other += s
		}
	}
	out.add("other.cpu_share", other, "fraction")
	out.add("bench.cpu_share", shares[bucketBench], "fraction")
	out.add("runtime.bg_share", shares[bucketRuntime], "fraction")
	sum := 0.0
	for name, m := range out {
		if strings.HasSuffix(name, ".cpu_share") || name == "runtime.bg_share" {
			sum += m.Value
		}
	}
	if sum < 0.99 || sum > 1.01 {
		return nil, fmt.Errorf("CPU shares sum to %v", sum)
	}
	out.add("runtime.alloc_mb_per_run", float64(t.after.TotalAlloc-t.before.TotalAlloc)/(1<<20)/float64(max(units, 1)), "MB")
	out.add("runtime.gc_cycles", float64(t.after.NumGC-t.before.NumGC), "count")
	out.add("bench.trace_overhead_s", (t.wall - untraced).Seconds(), "s")
	out.add("bench.trace_overhead_frac", (t.wall-untraced).Seconds()/untraced.Seconds(), "fraction")
	return out, nil
}

// traceBatch measures a batch workload untraced for a third of the window,
// runs the same batches again traced, then replays batch 0 through the lab
// probe.
func traceBatch(b *batchBench, window time.Duration) (*result, report, error) {
	rep := report{Samples: map[string]Quantile{}}
	if err := b.setup(); err != nil {
		return nil, rep, err
	}
	// Enough runs for campaign.run_ms_p50 (minBeyond beyond the median).
	if err := b.measure(window/3, 2*minBeyond); err != nil {
		return nil, rep, err
	}
	batches := len(b.runMs) / len(b.firstRuns)
	untraced := b.wall

	tb := &batchBench{workload: b.workload, seed: b.seed, workers: b.workers, golden: b.golden, tr: newTracer()}
	var t traced
	if err := t.begin(); err != nil {
		return nil, rep, err
	}
	for i := 0; i < batches; i++ {
		if err := tb.runBatch(i); err != nil {
			pprof.StopCPUProfile()
			return nil, rep, err
		}
	}
	t.end()
	out, err := t.layerMetrics(tb.runs, untraced)
	if err != nil {
		return nil, rep, err
	}
	pr := newProbe(tb.tr)
	tb.replay(pr)
	pr.layerMetrics(out)

	var runMs []float64
	for _, s := range tb.tr.named("campaign.run") {
		runMs = append(runMs, s.ms())
	}
	q, err := Percentile(runMs, 50)
	if err != nil {
		return nil, rep, fmt.Errorf("campaign.run_ms_p50: %w", err)
	}
	rep.Samples["campaign.run_ms_p50"] = q
	sort.Float64s(runMs)
	out.add("campaign.run_ms_p50", q.Value, "ms")
	out.add("campaign.run_ms_max", runMs[len(runMs)-1], "ms")
	out.add("campaign.worker_idle_frac", 1-tb.busyMs/(float64(b.workers)*ms(tb.wall)), "fraction")

	rep.Spans, rep.profile = tb.tr.spans, t.buf.Bytes()
	b.tally.add(tb.tally.attempted, tb.tally.failed)
	return b.tally.result(out), rep, nil
}

// traceWhatIf drives the first traceRounds rounds of the measured stream,
// on the measured schedule, untraced, then the same prefix traced on a
// fresh service, then replays one query per catalogue configuration
// through the lab probe.
func traceWhatIf(w *whatifBench, window time.Duration) (*result, report, error) {
	rep := report{Samples: map[string]Quantile{}}
	if err := w.setup(); err != nil {
		return nil, rep, err
	}
	n := streamLength(window)
	m := min(n, traceRounds*roundSize())
	items, due := genQueries(w.seed, n, w.links)[:m], genDue(w.seed, n)[:m]
	p := w.drive(items, due, nil)
	w.check(p)
	untraced := p.wall
	lagMax := p.lagMax

	if err := w.setup(); err != nil { // fresh service: the traced pass must miss too
		return nil, rep, err
	}
	defer w.svc.close()
	tr := newTracer()
	var t traced
	stop := make(chan struct{})
	var queuedMax int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				queuedMax = max(queuedMax, w.svc.srv.Metrics().PoolQueued)
			}
		}
	}()
	if err := t.begin(); err != nil {
		close(stop)
		wg.Wait()
		return nil, rep, err
	}
	tp := w.drive(items, due, tr)
	t.end()
	close(stop)
	wg.Wait()
	w.check(tp)
	out, err := t.layerMetrics(len(items), untraced)
	if err != nil {
		return nil, rep, err
	}
	sm := w.svc.srv.Metrics()
	pr := newProbe(tr)
	w.replay(pr, genQueries(w.seed, roundSize(), w.links), tp)
	pr.layerMetrics(out)
	out.add("serve.hits", float64(sm.Hits), "count")
	out.add("serve.misses", float64(sm.Misses), "count")
	out.add("serve.coalesced", float64(sm.Coalesced), "count")
	out.add("serve.failures", float64(sm.Failures), "count")
	out.add("serve.hit_ratio", sm.CacheHitRate, "fraction")
	out.add("serve.pool_queued_max", float64(queuedMax), "count")
	out.add("bench.gen_lag_ms_max", ms(lagMax), "ms")

	rep.Spans, rep.profile = tr.spans, t.buf.Bytes()
	return w.tally.result(out), rep, nil
}
