package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: with fewer, the value is one or two outliers, not a
// percentile.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule. ok is false when p is a tail percentile (p > 0.5)
// with fewer than minBeyond samples beyond it; the median is always
// reported.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	if p > 0.5 && n-1-idx < minBeyond {
		return sorted[idx], false
	}
	return sorted[idx], true
}

// median returns the middle value of xs (mean of the middle two for an
// even count) without reordering xs; 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
