package main

import (
	"cmp"
	"math"
	"slices"
)

// nSlices is how many equal parts of the measured window ops_per_s is also
// reported on, as its in-run spread.
const nSlices = 6

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice: the smallest value with at least p of the sample at or
// below it. Zero for an empty sample.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quartiles returns the first and third quartile and the median of vals the
// way Python's statistics.quantiles(vals, n=4) does (exclusive method), so
// spreads computed here agree with the driver's.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the first and third quartile as a share of
// the median — the driver's steadiness measure.
func spread(vals []float64) float64 {
	q1, med, q3 := quartiles(vals)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// sliceIndex says which of the nSlices equal parts of [start, end) the time
// t falls in; the instant that closes the window belongs to the last.
func sliceIndex(t, start, end int64) int {
	if end <= start {
		return 0
	}
	i := int(float64(t-start) / (float64(end-start) / nSlices))
	return min(max(i, 0), nSlices-1)
}

// sliceRates returns the completion rate (per second) in each slice of the
// window, given completion times.
func sliceRates(ends []int64, start, end int64) []float64 {
	rates := make([]float64, nSlices)
	for _, e := range ends {
		rates[sliceIndex(e, start, end)]++
	}
	if width := float64(end-start) / nSlices / 1e9; width > 0 {
		for i := range rates {
			rates[i] /= width
		}
	}
	return rates
}

// median is the middle of vals (the mean of the middle two).
func median(vals []float64) float64 {
	_, med, _ := quartiles(vals)
	return med
}

// interval is a half-open time range in tracer nanoseconds.
type interval struct{ start, end int64 }

// coveredWithin returns how much of outer the union of parts covers. Parts
// may overlap each other (parallel shard calls) and stick out of outer.
func coveredWithin(outer interval, parts []interval) int64 {
	ps := slices.Clone(parts)
	slices.SortFunc(ps, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	var covered int64
	cursor := outer.start
	for _, p := range ps {
		s, e := max(p.start, cursor), min(p.end, outer.end)
		if e > s {
			covered += e - s
			cursor = e
		}
	}
	return covered
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(outer interval, children []interval) int64 {
	return outer.end - outer.start - coveredWithin(outer, children)
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
