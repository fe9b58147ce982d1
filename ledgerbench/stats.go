package main

import (
	"math"
	"sort"
	"time"
)

// series collects one timing's samples in nanoseconds.
type series struct{ ns []int64 }

func (s *series) add(d time.Duration) { s.ns = append(s.ns, int64(d)) }

// quantile is the nearest-rank q-quantile of the samples (the smallest
// sample with at least q of the samples at or below it), 0 when empty.
func quantile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[rank(len(s), q)])
}

// rank is the 0-based index of the nearest-rank q-quantile among n
// sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// beyond counts the samples strictly above the q-quantile's rank: the
// guide's rule reports a percentile only when at least ten remain.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// A run's end-to-end metrics are taken over consecutive windows of its
// samples: at most maxWindows of them, each holding at least minWindow
// samples, so a window's 95th percentile has ten samples beyond it.
const (
	maxWindows = 6
	minWindow  = 200
)

// bestWindow splits samples, in the order they were taken, into windows
// of equal count and returns the best value of f over them: the lowest,
// or with higher set the highest. On a shared host, time stolen by other
// tenants comes in bursts of seconds; the best window is the stretch of
// the run they disturbed least. Costs the program pays throughout, such
// as its garbage collection or fsync tail, show in every window.
func bestWindow(ns []int64, higher bool, f func([]int64) float64) float64 {
	k := min(maxWindows, max(1, len(ns)/minWindow))
	best := f(ns[:len(ns)/k])
	for i := 1; i < k; i++ {
		v := f(ns[i*len(ns)/k : (i+1)*len(ns)/k])
		if (higher && v > best) || (!higher && v < best) {
			best = v
		}
	}
	return best
}

// median of float samples, 0 when empty.
func median(xs []float64) float64 {
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

// ratio is a/b, 0 when b is 0 (a layer that did no work reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
