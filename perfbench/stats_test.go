package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileHarrellDavis(t *testing.T) {
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{{50, 50.5, 50}, {90, 90.5, 10}} {
		q, err := Percentile(seq(100), c.p)
		if err != nil {
			t.Fatalf("p%v: %v", c.p, err)
		}
		// On 1..n the estimate is n*p/100 + 1/2.
		if math.Abs(q.Value-c.want) > 0.01 || q.N != 100 || q.Beyond != c.wantBeyond {
			t.Errorf("p%v = %+v, want value %v of 100 with %d beyond", c.p, q, c.want, c.wantBeyond)
		}
	}
	// Two bands with a gap at the median: moving two samples across the
	// gap moves the estimate by a fraction of the gap, not across it.
	band := func(low int) []float64 {
		var xs []float64
		for i := 0; i < 101; i++ {
			x := 100.0 + float64(i%5)
			if i >= low {
				x += 100
			}
			xs = append(xs, x)
		}
		return xs
	}
	a, _ := Percentile(band(50), 50)
	b, _ := Percentile(band(52), 50)
	if d := math.Abs(b.Value - a.Value); d == 0 || d > 50 {
		t.Errorf("moving two samples across the gap moved p50 from %v to %v", a.Value, b.Value)
	}
	for _, n := range []int{20, 101, 1000} {
		sum := 0.0
		for _, w := range hdWeights(n, 0.9) {
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("weights for n=%d sum to %v", n, sum)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	q, err := Percentile(seq(99), 90)
	if err == nil {
		t.Fatalf("p90 of 99 samples accepted: %+v", q)
	}
	if q.N != 99 || q.Beyond != 9 {
		t.Errorf("refused percentile reports n=%d beyond=%d, want 99 and 9", q.N, q.Beyond)
	}
	if _, err := Percentile(seq(19), 50); err == nil {
		t.Error("p50 of 19 samples accepted")
	}
	if _, err := Percentile(seq(20), 50); err != nil {
		t.Errorf("p50 of 20 samples refused: %v", err)
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := Percentile(seq(1000), p); err == nil {
			t.Errorf("p%v accepted", p)
		}
	}
}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	// The generator sent 50 ms late and the answer took 20 ms: the query
	// waited 70 ms from when it was due.
	latency, lag := openLoopSample(100*time.Millisecond, 150*time.Millisecond, 170*time.Millisecond)
	if latency != 70*time.Millisecond {
		t.Errorf("latency = %v, want 70ms (from the due time, not the send time)", latency)
	}
	if lag != 50*time.Millisecond {
		t.Errorf("generator lag = %v, want 50ms", lag)
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := medianOf([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
}
