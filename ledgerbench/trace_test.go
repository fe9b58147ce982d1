package main

import (
	"slices"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "round", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 1, Name: "a.inner", Start: 12, End: 18},
		{ID: 3, Parent: 0, Name: "b", Start: 25, End: 50},  // overlaps a: 10..50 covered once
		{ID: 4, Parent: 0, Name: "c", Start: 90, End: 120}, // clipped to the parent's end
	}
	got := selfTimes(spans, nil)
	want := []int64{
		100 - 40 - 10, // round minus 10..50 and 90..100
		20 - 6,        // a minus a.inner; grandchildren do not count against round
		6,
		25,
		30,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerFoldsTrees(t *testing.T) {
	tr := newTracer(true)
	for i := 0; i < 3; i++ {
		r := tr.begin("round")
		m := tr.begin("step")
		tr.end(m)
		tr.end(r)
	}
	o := tr.begin("oracle")
	tr.end(o)
	round, step := tr.stat("round"), tr.stat("step")
	if round.n != 3 || step.n != 3 || tr.stat("oracle").n != 1 {
		t.Fatalf("counts round=%d step=%d", round.n, step.n)
	}
	if round.self != round.total-step.total {
		t.Errorf("round self %d, want total %d minus step %d", round.self, round.total, step.total)
	}
	if tr.topTotal != round.total+tr.stat("oracle").total {
		t.Errorf("top-level total %d excludes nested spans only", tr.topTotal)
	}
	if len(tr.kept) != 7 || tr.kept[6].Trace != 3 || tr.kept[1].Parent != 0 {
		t.Errorf("kept spans %+v", tr.kept)
	}

	off := newTracer(false)
	off.end(off.begin("round"))
	if len(off.kept) != 0 || len(off.stats) != 0 {
		t.Error("an untraced run recorded spans")
	}
}
