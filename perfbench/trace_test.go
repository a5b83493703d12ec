package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketInnermostModuleFrame(t *testing.T) {
	p := &profile{
		strings: []string{"",
			"runtime.mallocgc",                     // 1
			"repro/internal/fib.(*Table).Lookup",   // 2
			"repro/internal/sim.(*Simulator).Run",  // 3
			"main.(*batchBench).runBatch",          // 4
			"runtime.gcBgMarkWorker",               // 5
			"net/http.(*persistConn).readLoop",     // 6
			"repro/internal/network.forward.func1", // 7
		},
		functions: map[uint64]int64{1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7},
		locations: map[uint64][]uint64{
			10: {1},
			11: {2, 3}, // Lookup inlined into Run: innermost first
			12: {4},
			13: {5},
			14: {6},
			15: {7},
		},
	}
	for _, c := range []struct {
		stack []uint64
		want  string
	}{
		{[]uint64{10, 11, 12}, "fib"},
		{[]uint64{10, 15, 11}, "network"},
		{[]uint64{13}, bucketRuntime},
		{[]uint64{10, 14}, bucketRuntime},
		{[]uint64{10, 12}, bucketBench},
	} {
		if got := p.bucket(c.stack); got != c.want {
			t.Errorf("bucket(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var sink float64

func TestCPUSharesOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	shares, n, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("profile caught no samples")
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares %v sum to %v, want 1", shares, sum)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists in step
// with what the benchmark prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this directory: %v", err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if bj.EndToEnd[i].Name != m.name || bj.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, code has %s (%s)", i, bj.EndToEnd[i], m.name, m.unit)
		}
	}
	layers := perLayer()
	if len(bj.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(bj.PerLayer), len(layers))
	}
	for i, m := range layers {
		if bj.PerLayer[i].Name != m.name || bj.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, code has %s (%s)", i, bj.PerLayer[i], m.name, m.unit)
		}
	}
}
