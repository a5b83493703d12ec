package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
)

// runTimeout bounds one campaign run or what-if query in wall time; a run
// that exceeds it counts as failed.
const runTimeout = 60 * time.Second

// batchBench drives recovery-sweep or pa-churn: closed-loop batches of the
// paper's matrix through the campaign pool, one batch after another.
type batchBench struct {
	workload string
	seed     int64
	workers  int
	golden   []string // per-batch digests for this seed; nil when none

	tr    *tracer
	runMs []float64
	wall  time.Duration
	// batchRate is each batch's completed runs per wall second.
	batchRate []float64
	busyMs    float64 // summed run time, for worker idleness
	runs      int
	tally     tally
	// firstRuns keeps batch 0's specs and metrics for the replays.
	firstRuns []campaign.Result
}

// tally counts operations and failures against the number attempted.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

func (t *tally) add(attempted, failed int) {
	t.mu.Lock()
	t.attempted += attempted
	t.failed += failed
	t.mu.Unlock()
}

// result is the benchmark's output line for these counts.
func (t *tally) result(metrics metricSet) *result {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// fail records one failed operation and says why on stderr.
func (t *tally) fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	t.add(0, 1)
}

// setup builds and validates the first batch, then warms the simulator on
// one run, as a user's first campaign would pay. The warm-up run is the
// same for every seed — the first run of the default seed's first batch —
// so set-up time does not vary with the seed's draw.
func (b *batchBench) setup() error {
	specs, err := batchSpecs(b.workload, b.seed, 0)
	if err != nil {
		return err
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	warm, err := batchSpecs(b.workload, defaultSeed, 0)
	if err != nil {
		return err
	}
	_, _, err = campaign.ExperimentRunner()(warm[0])
	return err
}

// runBatch runs batch i on the pool and checks every result.
func (b *batchBench) runBatch(i int) error {
	specs, err := batchSpecs(b.workload, b.seed, i)
	if err != nil {
		return err
	}
	trace := b.workload + " batch " + strconv.Itoa(i)
	batchID := b.tr.id()
	fn := campaign.ExperimentRunner()
	if b.tr != nil {
		inner := fn
		fn = func(s campaign.Spec) (campaign.Metrics, any, error) {
			start := time.Now()
			m, p, err := inner(s)
			b.tr.record(0, batchID, trace, "campaign.run", start, time.Now())
			return m, p, err
		}
	}
	start := time.Now()
	out, err := campaign.Run(specs, fn, campaign.Options{Parallelism: b.workers, Timeout: runTimeout})
	end := time.Now()
	if err != nil {
		return err
	}
	b.tr.record(batchID, 0, trace, "campaign.Run", start, end)
	b.wall += end.Sub(start)
	b.batchRate = append(b.batchRate, float64(len(out.Results))/end.Sub(start).Seconds())
	if i == 0 && b.firstRuns == nil {
		b.firstRuns = out.Results
	}
	b.tally.add(len(out.Results), 0)
	ok := true
	for _, r := range out.Results {
		b.runs++
		b.runMs = append(b.runMs, r.WallMS)
		b.busyMs += r.WallMS
		if r.Status != campaign.StatusOK {
			b.tally.fail("%s %s: %s", trace, r.Spec.Key(), r.Error)
			ok = false
			continue
		}
		if why := oracle(r); why != "" {
			b.tally.fail("%s %s: %s", trace, r.Spec.Key(), why)
			ok = false
		}
	}
	if ok && i < len(b.golden) {
		if got := batchDigest(out.Results); got != b.golden[i] {
			b.tally.fail("%s: digest %s, golden %s", trace, got, b.golden[i])
			b.tally.add(0, len(out.Results)-1)
		}
	}
	return nil
}

// measure runs batches back to back until the window has passed and at
// least minRuns runs have completed.
func (b *batchBench) measure(window time.Duration, minRuns int) error {
	start := time.Now()
	for i := 0; time.Since(start) < window || b.runs < minRuns; i++ {
		if err := b.runBatch(i); err != nil {
			return err
		}
	}
	return nil
}

// recheck re-runs batch 0's first spec serially and compares it with the
// pool's result: the output must not depend on scheduling.
func (b *batchBench) recheck() {
	if len(b.firstRuns) == 0 {
		return
	}
	r := b.firstRuns[0]
	b.tally.add(1, 0)
	m, _, err := campaign.ExperimentRunner()(r.Spec)
	if err != nil {
		b.tally.fail("recheck %s: %v", r.Spec.Key(), err)
		return
	}
	if got, want := metricsLine(m), metricsLine(r.Metrics); got != want {
		b.tally.fail("recheck %s: serial run gave %s, pool gave %s", r.Spec.Key(), got, want)
	}
}

// oracle applies the paper's invariants to one run's metrics and returns
// why it fails, or "".
func oracle(r campaign.Result) string {
	m := r.Metrics
	switch r.Spec.Kind {
	case campaign.KindRecovery:
		// 2 s of one 1448 B segment per 100 µs.
		if m["packets_sent"] != 20000 {
			return fmt.Sprintf("sent %v packets, want 20000", m["packets_sent"])
		}
		if m["packets_lost"] > m["packets_sent"] || m["connectivity_loss_ms"] <= 0 {
			return fmt.Sprintf("implausible loss: %s", metricsLine(m))
		}
		// §IV-A: F²Tree's backup routes recover C1–C6 within detection
		// time (~60 ms); only C7 needs the control plane.
		if r.Spec.Scheme == "f2tree" && r.Spec.Condition != "C7" && m["connectivity_loss_ms"] >= 100 {
			return fmt.Sprintf("F²Tree %s lost connectivity for %v ms", r.Spec.Condition, m["connectivity_loss_ms"])
		}
	case campaign.KindPA:
		if m["requests"] <= 0 || m["completed"] > m["requests"] || m["failures"] < 0 ||
			m["miss_ratio"] < 0 || m["miss_ratio"] > 1 {
			return fmt.Sprintf("implausible partition-aggregate result: %s", metricsLine(m))
		}
	}
	return ""
}

// metricsLine renders run metrics canonically: sorted keys, shortest
// round-trip float formatting.
func metricsLine(m campaign.Metrics) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s;", k, strconv.FormatFloat(m[k], 'g', -1, 64))
	}
	return sb.String()
}

// batchDigest digests a batch's outputs: every spec with its metrics, in
// the campaign's deterministic result order.
func batchDigest(results []campaign.Result) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%s\n%s\n", r.Spec.Key(), metricsLine(r.Metrics))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// replay runs the lab probe over batch 0's runs, workers at a time.
func (b *batchBench) replay(p *probe) {
	var ok []campaign.Result
	for _, r := range b.firstRuns {
		if r.Status == campaign.StatusOK {
			ok = append(ok, r)
		}
	}
	forEach(b.workers, len(ok), func(i int) {
		r := ok[i]
		b.tally.add(1, 0)
		var err error
		if r.Spec.Kind == campaign.KindPA {
			err = p.replayPA(r.Spec, r.Metrics)
		} else {
			err = p.replayRecovery(r.Spec, r.Metrics)
		}
		if err != nil {
			b.tally.fail("probe: %v", err)
		}
	})
}

// forEach calls fn(0..n-1) on at most workers goroutines and returns when
// every call has.
func forEach(workers, n int, fn func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}
