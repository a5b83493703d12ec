package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples a percentile must have above its rank.
// A p90 of 40 samples rests on 4 values and moves with any one of them, so
// such a percentile is refused rather than reported.
const minBeyond = 10

// Quantile is a percentile together with the sample count it was taken
// from and how many samples lie beyond its nearest rank.
type Quantile struct {
	P      float64 `json:"p"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// Percentile returns the Harrell–Davis estimate of the p-th percentile
// (0 < p < 100) of xs: a mean of the sorted samples weighted by how much
// of a Beta((n+1)p/100, (n+1)(1-p/100)) distribution falls on each one's
// 1/n slice of [0, 1]. The what-if latencies are a mixture of cost bands
// with sparse gaps between them, and a nearest-rank median that sits at a
// gap jumps across it when a few samples move; this estimate moves with
// them instead. It refuses a percentile with fewer than minBeyond samples
// beyond its nearest rank.
func Percentile(xs []float64, p float64) (Quantile, error) {
	if p <= 0 || p >= 100 {
		return Quantile{}, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	n := len(xs)
	rank := max(int(math.Ceil(p/100*float64(n))), 1)
	q := Quantile{P: p, N: n, Beyond: n - rank}
	if q.Beyond < minBeyond {
		return q, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, q.Beyond, minBeyond)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	w := hdWeights(n, p/100)
	for i, x := range sorted {
		q.Value += w[i] * x
	}
	return q, nil
}

// hdWeights is the Beta((n+1)f, (n+1)(1-f)) probability of each slice
// [i/n, (i+1)/n), integrated by the midpoint rule and normalized to sum
// to 1. Both shape parameters exceed 1 whenever Percentile accepts, so the
// density is bounded.
func hdWeights(n int, f float64) []float64 {
	const steps = 64
	a, b := float64(n+1)*f, float64(n+1)*(1-f)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	norm := lab - la - lb
	w := make([]float64, n)
	total := 0.0
	h := 1 / float64(n*steps)
	for i := range w {
		for k := 0; k < steps; k++ {
			x := (float64(i*steps+k) + 0.5) * h
			w[i] += math.Exp(norm + (a-1)*math.Log(x) + (b-1)*math.Log1p(-x))
		}
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// medianOf is the middle of a handful of repeated measurements (set-up
// repetitions, per-call probe timings). It is not a distribution
// percentile, so the minBeyond rule does not apply.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// openLoopSample times one open-loop request. Offsets are from the start
// of the schedule: due is when the request was scheduled to be sent, sent
// when the generator actually sent it, done when its answer arrived.
// Latency runs from the due time, so a stalled generator or a full
// connection queue charges its delay to every request it held back; lag
// is how late the generator itself ran.
func openLoopSample(due, sent, done time.Duration) (latency, lag time.Duration) {
	return done - due, sent - due
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
