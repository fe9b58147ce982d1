package main

import (
	"io"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// with its oracle, and checks the result carries every catalog metric.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	all := append(append([]workload{}, workloads...), manualWorkloads...)
	for i := range all {
		w := &all[i]
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := measure(w, 3, 400*time.Millisecond, traced, t.TempDir(), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("traced=%v: %d metrics, catalog has %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if _, ok := res.Metrics[d.Name]; !ok {
						t.Fatalf("traced=%v: metric %s missing", traced, d.Name)
					}
				}
				if traced {
					if cov := res.Metrics["ledger.coverage"].Value; cov < 0.9 || cov > 1.0001 {
						t.Errorf("top-level spans cover %.3f of the loop, want within 10%%", cov)
					}
					if w.name == "read-mix" && res.Metrics["engine.snapshot_builds"].Value != 0 {
						t.Error("read-mix built a merged snapshot")
					}
				} else {
					for _, d := range defs {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
				}
			}
		})
	}
}

func TestCyclerWraps(t *testing.T) {
	in := makeInputs(1)
	c := &cycler{ups: in.updates}
	n := len(in.updates)
	c.next(n - 3)
	b := c.next(8)
	if len(b) != 8 || b[3] != in.updates[0] || b[2] != in.updates[n-1] {
		t.Fatalf("wrapped batch does not continue at the stream's start")
	}
	if next := c.next(1); next[0] != in.updates[5] {
		t.Fatalf("cycler lost its place after wrapping")
	}
}
