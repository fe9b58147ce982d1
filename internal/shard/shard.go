// Package shard provides the single-writer worker that the sharded
// ingest engine (package engine) builds on. Every sketch in this
// library is single-goroutine by design — updates and queries share
// per-structure scratch — so parallel ingest means partitioning the
// stream across S structures, each owned by exactly one goroutine.
//
// A Worker owns one such structure set. It consumes columnar batches
// (core.Batch: the engine partitions incoming updates by computing
// every update's shard key in one batch hash evaluation, then
// scattering indices and deltas into per-shard columns) from a bounded
// channel (the bound IS the backpressure: when a shard falls behind,
// senders block instead of queueing unbounded memory). A per-shard
// mutex serializes every use of the structure set: the worker
// goroutine holds it while it processes one inbox message, and a
// caller holds it for the length of a Run. That gives callers three
// primitives:
//
//   - a flush barrier: <-DoAsync(nil) returns only after every batch
//     sent before it has been applied,
//   - race-free snapshots: DoAsync(func(){ snap = structures.Clone() })
//     runs serialized with ingest, so queries never observe a torn
//     sketch, and
//   - snapshot-free point queries on the caller's goroutine:
//     Run(func(){ v = structures.Query(i) }) waits out the messages
//     already committed to the inbox and reads the live structure — no
//     clone, no merge, no wake-up of the worker goroutine.
//
// Stash hands the worker a batch without the inbox: it never blocks
// on the shard, and the next Run or inbox message, whichever takes the
// mutex first, applies it before anything else. A reader stashes the
// batch it must see and then Runs, so it never holds the shard's mutex
// while it waits for anything else.
//
// The worker deliberately knows nothing about which structures it
// feeds: it moves batches and closures, the engine supplies the
// Ingester.
package shard

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// Ingester consumes pre-planned columnar batches. The engine's
// per-shard structure set implements it by fanning each batch to every
// enabled sketch; each sketch hashes the shared index column with its
// own batch evaluators and applies the columns to its counters.
type Ingester interface {
	UpdateColumns(b *core.Batch)
}

// message is one unit of work: exactly one of batch or do is set.
type message struct {
	batch *core.Batch
	do    func()
	done  chan struct{}
}

// Metrics is a worker's observability cell block: per-worker counters
// written only under the worker's mutex (apply side) or by the sending
// goroutine (stall side). Each obs.Counter is cache-line padded, so
// adjacent workers' metrics never false-share. Under -tags noobs the
// whole struct is zero-size and every recording call compiles out.
type Metrics struct {
	// BatchesApplied and KeysApplied count batches applied, sent or
	// stashed (a flush barrier makes them exact totals).
	BatchesApplied obs.Counter
	KeysApplied    obs.Counter
	// BusyNanos accumulates time spent inside UpdateColumns, on the
	// owner goroutine or, for stashed batches, on whichever goroutine
	// holds the mutex — occupancy = BusyNanos / wall time.
	BusyNanos obs.Counter
	// SendStalls counts Sends that found the inbox full and had to
	// block — the backpressure signal.
	SendStalls obs.Counter
}

// Worker is a single-writer shard: one goroutine, one Ingester, one
// bounded inbox, and one mutex that serializes the goroutine with Run.
type Worker struct {
	in      chan message
	wg      sync.WaitGroup
	ing     Ingester
	recycle func(*core.Batch)
	m       Metrics

	// mu is held by the worker goroutine while it processes a message
	// and for the length of a Run; progress is signalled each time
	// processed advances while a Run waits on it.
	mu       sync.Mutex
	progress sync.Cond
	// reserved counts messages committed to the inbox: it is incremented
	// BEFORE each channel push, so a Send or DoAsync that has returned
	// is already counted. processed (guarded by mu) counts messages the
	// worker goroutine has finished. A message the goroutine has
	// received but not yet locked for is counted by the first and not
	// the second, which is how Run sees it. wakeAt (guarded by mu) is
	// the smallest processed count a blocked Run waits for, or
	// MaxUint64 when none waits, so the goroutine signals only when a
	// wait is over.
	reserved  atomic.Uint64
	processed uint64
	wakeAt    uint64

	// stash holds batches handed over by Stash, guarded by stashMu,
	// which covers only the append and the swap; stashed mirrors its
	// length so the lock-holder's check is one atomic load. spare is
	// the drained backing array, reused by the next swap (guarded by mu).
	stashMu sync.Mutex
	stash   []*core.Batch
	spare   []*core.Batch
	stashed atomic.Int32
}

// New starts a worker goroutine that feeds ing. queue is the inbox
// depth in batches (minimum 1) — the backpressure window. recycle, if
// non-nil, receives each batch after it has been applied so the caller
// can pool buffers; the worker never touches a batch afterwards.
func New(ing Ingester, queue int, recycle func(*core.Batch)) *Worker {
	return NewNamed(ing, queue, recycle, "")
}

// NewNamed is New with an observability name: when non-empty, the
// worker goroutine labels itself with the pprof label shard=name (CPU
// profiles attribute samples per shard). Every batch apply, sent or
// stashed, is wrapped in the execution-trace region "shard.apply" so
// `go tool trace` shows per-shard apply spans.
func NewNamed(ing Ingester, queue int, recycle func(*core.Batch), name string) *Worker {
	if queue < 1 {
		queue = 1
	}
	w := &Worker{in: make(chan message, queue), ing: ing, recycle: recycle, wakeAt: math.MaxUint64}
	w.progress.L = &w.mu
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		if name != "" {
			obs.LabelGoroutine("shard", name)
		}
		for m := range w.in {
			w.mu.Lock()
			w.drainLocked()
			if m.batch != nil {
				w.apply(m.batch)
			}
			if m.do != nil {
				m.do()
				close(m.done)
			}
			w.processed++
			wake := w.processed >= w.wakeAt
			if wake {
				w.wakeAt = math.MaxUint64
			}
			w.mu.Unlock()
			if wake {
				// The woken Run lands on this goroutine's processor;
				// yielding lets it take the mutex before this goroutine
				// locks it again for the next message, so a busy inbox
				// cannot keep a read waiting.
				w.progress.Broadcast()
				runtime.Gosched()
			}
		}
	}()
	return w
}

// apply feeds one nonempty batch to the Ingester and recycles it. The
// caller holds w.mu.
func (w *Worker) apply(b *core.Batch) {
	start := obs.Now()
	span := obs.StartRegion(context.Background(), "shard.apply")
	w.ing.UpdateColumns(b)
	span.End()
	w.m.BusyNanos.Add(obs.Now() - start)
	w.m.BatchesApplied.Inc()
	w.m.KeysApplied.Add(int64(b.Len()))
	if w.recycle != nil {
		w.recycle(b)
	}
}

// drainLocked applies every stashed batch. The caller holds w.mu, so
// drains never overlap and spare is theirs; stashMu is held only for
// the swap, never across an apply.
func (w *Worker) drainLocked() {
	if w.stashed.Load() == 0 {
		return
	}
	w.stashMu.Lock()
	runs := w.stash
	w.stash = w.spare
	w.stashed.Store(0)
	w.stashMu.Unlock()
	for j, b := range runs {
		w.apply(b)
		runs[j] = nil
	}
	w.spare = runs[:0]
}

// Metrics returns the worker's counters; readers may load them at any
// time (quiesce with a flush barrier first for exact totals).
func (w *Worker) Metrics() *Metrics { return &w.m }

// QueueDepth reports the number of messages waiting in the inbox right
// now; QueueCap its bound. Depth ≈ cap sustained means the shard is the
// bottleneck and senders are stalling.
func (w *Worker) QueueDepth() int { return len(w.in) }

// QueueCap reports the inbox bound.
func (w *Worker) QueueCap() int { return cap(w.in) }

// Send hands a columnar batch to the worker, transferring ownership.
// It blocks while the inbox is full — the backpressure that keeps a
// slow shard from accumulating unbounded queued batches. Each Send
// that finds the inbox full counts one stall in Metrics.
func (w *Worker) Send(b *core.Batch) {
	if b == nil || b.Len() == 0 {
		if b != nil && w.recycle != nil {
			w.recycle(b)
		}
		return
	}
	msg := message{batch: b}
	w.reserved.Add(1)
	if obs.Enabled {
		// Try-then-block: the fast path is one select that succeeds
		// immediately; only a full inbox pays the second (blocking) send,
		// and that Send was going to block anyway.
		select {
		case w.in <- msg:
			return
		default:
			w.m.SendStalls.Inc()
		}
	}
	w.in <- msg
}

// DoAsync enqueues f to run in the worker goroutine after every
// previously sent batch has been applied, and returns immediately with
// the channel that closes when f has run — the fan-out form used to
// flush or snapshot many shards concurrently. With f == nil it is a
// pure flush barrier.
func (w *Worker) DoAsync(f func()) <-chan struct{} {
	if f == nil {
		f = func() {}
	}
	done := make(chan struct{})
	w.reserved.Add(1)
	w.in <- message{do: f, done: done}
	return done
}

// Stash hands a nonempty batch to the worker without the inbox,
// transferring ownership: the next Run, or the next inbox message the
// worker goroutine processes, applies it before anything else. Stash
// never waits on the shard — it takes only a mutex that covers the
// append — so a caller can stash inside its own critical section.
func (w *Worker) Stash(b *core.Batch) {
	w.stashMu.Lock()
	w.stash = append(w.stash, b)
	w.stashed.Store(int32(len(w.stash)))
	w.stashMu.Unlock()
}

// Mark returns the number of messages committed to the inbox so far,
// the point a later RunAfter waits for.
func (w *Worker) Mark() uint64 { return w.reserved.Load() }

// Run runs f on the caller's goroutine under the worker's mutex, after
// every batch stashed before the call has been applied and every
// message committed to the inbox before the call has been processed:
// RunAfter(Mark(), f).
func (w *Worker) Run(f func()) { w.RunAfter(w.Mark(), f) }

// RunAfter is Run that waits only for the messages counted by mark, an
// earlier Mark: a read of several shards marks them all at once, so
// while a producer keeps the inboxes full it waits out one backlog,
// not one per shard. Stashed batches are applied inline; queued
// messages are left to the worker goroutine, which keeps the inbox
// strictly FIFO (RunAfter waits, releasing the mutex, until the
// goroutine has caught up). f must not call back into the Worker.
func (w *Worker) RunAfter(mark uint64, f func()) {
	w.mu.Lock()
	w.drainLocked()
	for w.processed < mark {
		// Every waiter wakes on a signal and re-registers here if its
		// own mark is still ahead.
		w.wakeAt = min(w.wakeAt, mark)
		w.progress.Wait()
	}
	f()
	w.mu.Unlock()
}

// Close stops the worker after draining every queued message and
// stashed batch and waits for the goroutine to exit. The Worker must
// not be used afterwards.
func (w *Worker) Close() {
	close(w.in)
	w.wg.Wait()
	w.mu.Lock()
	w.drainLocked()
	w.mu.Unlock()
}
