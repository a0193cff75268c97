package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile-honesty rule: a percentile is supported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// pct is one percentile of a sample set, with the evidence behind it.
type pct struct {
	Value     float64
	N         int  // samples in the set
	Supported bool // at least minBeyond samples lie beyond the rank
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs, which
// it sorts in place. An empty set yields a zero, unsupported value.
func percentile(xs []float64, q float64) pct {
	n := len(xs)
	if n == 0 {
		return pct{}
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank > n-1 {
		rank = n - 1
	}
	return pct{Value: xs[rank], N: n, Supported: n-1-rank >= minBeyond}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
