package main

import "testing"

func TestQuantileNearestRank(t *testing.T) {
	ns := []int64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.95, 100}, {0.9, 90}, {0.1, 10}, {0, 10}, {1, 100}} {
		if got := quantile(ns, c.q); got != c.want {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if ns[0] != 50 {
		t.Error("quantile reordered its input")
	}
}

// The report states how many samples lie beyond each percentile: the
// guide reports a percentile only when at least ten do.
func TestBeyondCounts(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{400, 0.95, 20}, {200, 0.95, 10}, {1000, 0.99, 10}, {999, 0.99, 9}, {10, 0.5, 5}, {1, 0.95, 0}, {0, 0.5, 0}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestMedianAndRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio over zero = %v, want 0", got)
	}
}

func TestBestWindow(t *testing.T) {
	// A disturbed stretch of the run does not move the result, and the
	// windows keep at least minWindow samples each.
	var ns []int64
	for i := 0; i < 6*minWindow; i++ {
		v := int64(100 + i%10)
		if i >= 2*minWindow && i < 5*minWindow {
			v *= 5
		}
		ns = append(ns, v)
	}
	p95 := func(w []int64) float64 { return quantile(w, 0.95) }
	if got := bestWindow(ns, false, p95); got != 109 {
		t.Errorf("best-window p95 = %v, want 109", got)
	}
	if got := bestWindow(ns, true, p95); got != 545 {
		t.Errorf("highest window p95 = %v, want 545", got)
	}
	var sizes []int
	bestWindow(ns[:3*minWindow-1], false, func(w []int64) float64 { sizes = append(sizes, len(w)); return 0 })
	if len(sizes) != 2 || sizes[0] < minWindow {
		t.Errorf("window sizes %v, want two of at least %d", sizes, minWindow)
	}
	if got := bestWindow([]int64{7, 9}, false, func(w []int64) float64 { return float64(len(w)) }); got != 2 {
		t.Errorf("too few samples to split: f saw %v samples, want 2", got)
	}
}
