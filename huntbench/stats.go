package main

import (
	"math"
	"sort"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is noise.
const minBeyond = 10

// percentileLadder lists the percentiles a tail figure may be reported
// at, lowest first.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// nearestRank returns the p-th percentile of sorted samples by the
// nearest-rank rule, and how many samples lie beyond it.
func nearestRank(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n - 1 - idx
}

// tailPercentile returns the highest ladder percentile no higher than
// maxP that has at least minBeyond samples beyond it, with its value.
// ok is false when even the median lacks them.
func tailPercentile(sorted []float64, maxP float64) (p, v float64, ok bool) {
	for _, q := range percentileLadder {
		if q > maxP {
			break
		}
		val, beyond := nearestRank(sorted, q)
		if beyond < minBeyond {
			break
		}
		p, v, ok = q, val, true
	}
	return p, v, ok
}

// putLatency stores the median and the tail of samples (in
// microseconds) under name.p50 and name.p99, plus name.n (the sample
// count) and name.tail_pct, the percentile name.p99 actually holds: the
// highest up to 99 with at least minBeyond samples beyond it.
func putLatency(m map[string]float64, name string, samples []float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m[name+".n"] = float64(len(s))
	m[name+".p50"], _ = nearestRank(s, 50)
	p, v, _ := tailPercentile(s, 99)
	m[name+".p99"] = v
	m[name+".tail_pct"] = p
}

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping intervals once.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, iv := range clipped {
		if iv.start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = iv.start, iv.end
			continue
		}
		if iv.end > curE {
			curE = iv.end
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it that its child
// spans cover; nested or overlapping children count once.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent.start, parent.end, children)
}

// errorCount counts a hunt's failed operations: scenarios the budget
// paid for that never folded (which includes every unexecuted scenario
// of a hunt whose run or store close returned an error) plus records
// whose exit status is a harness failure. A hunt that failed a
// correctness gate counts every attempted scenario as failed: its
// output cannot be trusted.
func errorCount(attempted, executed, harness int, gateFailed bool) int {
	if gateFailed {
		return attempted
	}
	n := harness
	if executed < attempted {
		n += attempted - executed
	}
	return n
}
