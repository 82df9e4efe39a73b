package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a percentile before it may
// be reported as the tail.
const minBeyond = 10

// rankOf is the nearest-rank index (0-based) of percentile p among n
// sorted samples.
func rankOf(p float64, n int) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1 // tolerate 99.9*n/100 rounding up
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it; ok is false when n is too small for
// any of them.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-(rankOf(p, n)+1) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of xs (xs is not
// modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))]
}

// summary is a latency distribution reduced to the numbers the benchmark
// reports.
type summary struct {
	N     int
	P50   float64
	Tail  float64
	TailP float64 // the workload's fixed tail percentile
	Max   float64
	// Beyond counts the samples above the tail; the tail is only
	// trustworthy with at least minBeyond of them.
	Beyond int
}

// summarize reduces samples to median and the tail at percentile tailP.
// Each workload fixes tailP by the tailPercentile rule from its expected
// sample count, so the reported percentile cannot shift between runs or
// commits as the count moves.
func summarize(xs []float64, tailP float64) summary {
	s := summary{N: len(xs), TailP: tailP}
	if len(xs) == 0 {
		return s
	}
	s.P50 = percentile(xs, 50)
	s.Max = percentile(xs, 100)
	s.Tail = percentile(xs, tailP)
	s.Beyond = len(xs) - (rankOf(tailP, len(xs)) + 1)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
