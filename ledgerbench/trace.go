package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans of one top-level tree (one round, one oracle check, ...)
// share Trace; Parent is the enclosing span's ID within the tree, -1 at
// the top.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanStat aggregates every finished span of one name.
type spanStat struct {
	n           int
	total, self int64
}

// maxKeptSpans bounds the spans written out at exit; the aggregates
// cover every span.
const maxKeptSpans = 20_000

// tracer times calls. Off, begin/end only read the clock, which the
// end-to-end timings need anyway; on, they also record spans, and each
// finished tree is folded into per-name self times.
type tracer struct {
	on    bool
	base  time.Time
	trace int64
	tree  []span
	self  []int64
	stack []int32
	kept  []span
	stats map[string]*spanStat

	topTotal     int64 // summed duration of top-level spans
	heapPeak     uint64
	lastHeapRead time.Time
	heapSample   []metrics.Sample
}

func newTracer(on bool) *tracer {
	return &tracer{
		on:         on,
		base:       time.Now(),
		stats:      map[string]*spanStat{},
		heapSample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
}

type mark struct {
	start time.Time
	id    int32
}

func (t *tracer) begin(name string) mark {
	now := time.Now()
	if !t.on {
		return mark{start: now}
	}
	id := int32(len(t.tree))
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.tree = append(t.tree, span{Trace: t.trace, ID: id, Parent: parent, Name: name, Start: int64(now.Sub(t.base))})
	t.stack = append(t.stack, id)
	return mark{start: now, id: id}
}

// end closes the span begun by m and returns its duration. Spans close
// in LIFO order; closing a top-level span folds its tree into the stats.
func (t *tracer) end(m mark) time.Duration {
	now := time.Now()
	d := now.Sub(m.start)
	if !t.on {
		return d
	}
	t.tree[m.id].End = int64(now.Sub(t.base))
	t.stack = t.stack[:len(t.stack)-1]
	if len(t.stack) == 0 {
		t.fold(now)
	}
	return d
}

func (t *tracer) fold(now time.Time) {
	t.self = selfTimes(t.tree, t.self[:0])
	for i, s := range t.tree {
		st := t.stats[s.Name]
		if st == nil {
			st = &spanStat{}
			t.stats[s.Name] = st
		}
		st.n++
		st.total += s.End - s.Start
		st.self += t.self[i]
		if s.Parent < 0 {
			t.topTotal += s.End - s.Start
		}
	}
	if room := maxKeptSpans - len(t.kept); room > 0 {
		t.kept = append(t.kept, t.tree[:min(room, len(t.tree))]...)
	}
	t.tree = t.tree[:0]
	t.trace++
	if now.Sub(t.lastHeapRead) >= time.Millisecond {
		t.lastHeapRead = now
		metrics.Read(t.heapSample)
		if v := t.heapSample[0].Value.Uint64(); v > t.heapPeak {
			t.heapPeak = v
		}
	}
}

// resetLoop discards what was recorded before the measured loop, so the
// ledger covers the loop alone.
func (t *tracer) resetLoop() {
	t.stats = map[string]*spanStat{}
	t.topTotal = 0
	t.heapPeak = 0
}

// stat returns the aggregate for a span name (zero if never recorded).
func (t *tracer) stat(name string) spanStat {
	if st := t.stats[name]; st != nil {
		return *st
	}
	return spanStat{}
}

// selfTimes appends to self, for each span of one tree, its duration
// minus the part of its interval covered by its direct children
// (overlapping children count once; parts outside the parent are clipped).
// Spans must be in begin order, as the tracer records them, so a span's
// children follow it sorted by start.
func selfTimes(spans []span, self []int64) []int64 {
	for i, s := range spans {
		covered, curS, curE := int64(0), int64(0), int64(-1)
		for _, c := range spans[i+1:] {
			if c.Parent != int32(i) {
				continue
			}
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > curE {
				covered += max(curE-curS, 0)
				curS, curE = a, b
			} else {
				curE = max(curE, b)
			}
		}
		covered += max(curE-curS, 0)
		self = append(self, s.End-s.Start-covered)
	}
	return self
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
