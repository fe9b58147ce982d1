package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stream"
)

// recorder counts applied updates and remembers their order.
type recorder struct {
	applied []stream.Update
	batches int
}

func (r *recorder) UpdateColumns(b *core.Batch) {
	for j, i := range b.Idx {
		r.applied = append(r.applied, stream.Update{Index: i, Delta: b.Delta[j]})
	}
	r.batches++
}

// planned builds a columnar batch from updates.
func planned(us ...stream.Update) *core.Batch {
	b := core.GetBatch()
	b.LoadUpdates(us)
	return b
}

func TestWorkerAppliesInOrder(t *testing.T) {
	rec := &recorder{}
	w := New(rec, 2, core.PutBatch)
	var want []stream.Update
	for b := 0; b < 10; b++ {
		batch := core.GetBatch()
		for i := 0; i < 16; i++ {
			u := stream.Update{Index: uint64(b*16 + i), Delta: 1}
			batch.Append(u.Index, u.Delta)
			want = append(want, u)
		}
		w.Send(batch)
	}
	<-w.DoAsync(nil) // flush barrier
	if len(rec.applied) != len(want) {
		t.Fatalf("applied %d updates, want %d", len(rec.applied), len(want))
	}
	for i := range want {
		if rec.applied[i] != want[i] {
			t.Fatalf("update %d out of order: got %+v want %+v", i, rec.applied[i], want[i])
		}
	}
	w.Close()
}

// TestWorkerDoIsBarrier checks DoAsync observes every previously sent batch.
func TestWorkerDoIsBarrier(t *testing.T) {
	rec := &recorder{}
	w := New(rec, 4, core.PutBatch)
	for b := 0; b < 7; b++ {
		w.Send(planned(stream.Update{Index: uint64(b), Delta: 1}))
	}
	var seen int
	<-w.DoAsync(func() { seen = len(rec.applied) })
	if seen != 7 {
		t.Fatalf("DoAsync observed %d applied updates, want 7", seen)
	}
	w.Close()
}

// slowIngester blocks until released, so the inbox can be filled.
type slowIngester struct {
	release chan struct{}
	n       atomic.Int64
}

func (s *slowIngester) UpdateColumns(b *core.Batch) {
	<-s.release
	s.n.Add(int64(b.Len()))
}

// TestWorkerBackpressure: with a queue of 1 and a stalled ingester, a
// sender must block rather than queue unbounded batches.
func TestWorkerBackpressure(t *testing.T) {
	ing := &slowIngester{release: make(chan struct{})}
	w := New(ing, 1, nil)
	// First batch is picked up by the goroutine (stalls in UpdateColumns),
	// second fills the inbox; the third must block.
	w.Send(planned(stream.Update{Index: 1, Delta: 1}))
	w.Send(planned(stream.Update{Index: 2, Delta: 1}))
	blocked := make(chan struct{})
	go func() {
		w.Send(planned(stream.Update{Index: 3, Delta: 1}))
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("third Send did not block on a full inbox")
	case <-time.After(50 * time.Millisecond):
	}
	close(ing.release) // drain
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("Send still blocked after drain")
	}
	<-w.DoAsync(nil)
	if got := ing.n.Load(); got != 3 {
		t.Fatalf("ingested %d updates, want 3", got)
	}
	w.Close()
}

// TestWorkerRecycle: applied batches come back through the recycle
// hook, and empty batches are recycled immediately rather than queued.
func TestWorkerRecycle(t *testing.T) {
	rec := &recorder{}
	var recycled atomic.Int64
	w := New(rec, 2, func(b *core.Batch) { recycled.Add(1) })
	for b := 0; b < 5; b++ {
		w.Send(planned(stream.Update{Index: uint64(b), Delta: 1}))
	}
	w.Send(core.GetBatch()) // empty: recycled without a queue round-trip
	<-w.DoAsync(nil)
	if got := recycled.Load(); got != 6 {
		t.Fatalf("recycled %d batches, want 6", got)
	}
	if rec.batches != 5 {
		t.Fatalf("applied %d batches, want 5", rec.batches)
	}
	w.Close()
}

// keyCounter counts applied keys; the worker's mutex guards n.
type keyCounter struct{ n int64 }

func (k *keyCounter) UpdateColumns(b *core.Batch) { k.n += int64(b.Len()) }

// TestWorkerRunObservesCommitted hammers Run against concurrent Send,
// DoAsync and Stash callers on a small inbox. Every Run must observe
// every message whose Send, DoAsync or Stash returned before it began
// — including a message the worker goroutine has received but not yet
// locked for.
func TestWorkerRunObservesCommitted(t *testing.T) {
	ing := &keyCounter{}
	w := New(ing, 2, core.PutBatch)
	const senders, sends, doers, dos, stashers, stashes = 4, 400, 2, 200, 2, 300
	var committedKeys, doneDos atomic.Int64
	closures := 0 // DoAsync closures run so far; guarded by the worker's mutex
	var wg sync.WaitGroup
	batch := func(tag, k, n int) *core.Batch {
		b := core.GetBatch()
		for j := 0; j < n; j++ {
			b.Append(uint64(tag<<20|k<<2|j), 1)
		}
		return b
	}
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < sends; k++ {
				n := 1 + (g+k)%3
				w.Send(batch(g, k, n))
				committedKeys.Add(int64(n))
			}
		}(g)
	}
	for g := 0; g < doers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < dos; k++ {
				done := w.DoAsync(func() { closures++ })
				if k%2 == g%2 {
					<-done
				}
				doneDos.Add(1)
			}
		}(g)
	}
	for g := 0; g < stashers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < stashes; k++ {
				n := 1 + k%2
				w.Stash(batch(senders+g, k, n))
				committedKeys.Add(int64(n))
				if k%3 == 0 {
					runtime.Gosched()
				}
			}
		}(g)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()

	var runs, misses int
	for running := true; running; runs++ {
		select {
		case <-finished:
			running = false // one last Run after every caller returned
		default:
		}
		wantKeys, wantDos := committedKeys.Load(), doneDos.Load()
		w.Run(func() {
			if ing.n < wantKeys || int64(closures) < wantDos {
				misses++
			}
		})
	}
	// A batch stashed after the last Run is applied by Close.
	w.Stash(batch(1<<10, 0, 1))
	w.Close()
	if misses > 0 {
		t.Fatalf("%d of %d Runs missed a committed message", misses, runs)
	}
	if want := committedKeys.Load() + 1; ing.n != want {
		t.Fatalf("applied %d keys, want %d", ing.n, want)
	}
	if closures != doers*dos {
		t.Fatalf("ran %d DoAsync closures, want %d", closures, doers*dos)
	}
}

// TestWorkerStash checks where stashed batches are applied: before f in
// the next Run, before the closure of the next inbox message, and in
// Close — each exactly once.
func TestWorkerStash(t *testing.T) {
	ing := &keyCounter{}
	w := New(ing, 1, core.PutBatch)
	w.Stash(planned(stream.Update{Index: 1, Delta: 1}, stream.Update{Index: 2, Delta: 1}))
	w.Stash(planned(stream.Update{Index: 3, Delta: 1}))
	var seen int64
	w.Run(func() { seen = ing.n })
	if seen != 3 {
		t.Fatalf("Run saw %d keys, want the 3 stashed before it", seen)
	}
	w.Stash(planned(stream.Update{Index: 4, Delta: 1}))
	<-w.DoAsync(func() { seen = ing.n })
	if seen != 4 {
		t.Fatalf("DoAsync closure saw %d keys, want 4", seen)
	}
	w.Stash(planned(stream.Update{Index: 5, Delta: 1}))
	w.Close()
	if ing.n != 5 {
		t.Fatalf("applied %d keys after Close, want 5", ing.n)
	}
	if got := w.Metrics().BatchesApplied.Load(); obs.Enabled && got != 4 {
		t.Fatalf("BatchesApplied = %d, want 4", got)
	}
}
