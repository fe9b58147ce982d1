package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	bounded "repro"
)

// BenchmarkEngineIngest measures aggregate multi-producer UpdateBatch
// throughput through the engine on the Figure 1 heavy-hitters workload,
// across shard counts. ns/op is wall-clock per ingested update with S
// producers feeding S shards concurrently, flushed before the clock
// stops — the number BENCH_2.json archives. Scaling with shard count
// requires cores: on a single-CPU host the curve is flat (the workers
// time-share), which the BENCH_2.json note records alongside the
// numbers.
func BenchmarkEngineIngest(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchEngineIngest(b, shards)
		})
	}
}

func benchEngineIngest(b *testing.B, shards int) {
	s, _ := fig1Stream(42)
	const chunk = 2048
	var chunks [][]bounded.Update
	for off := 0; off < len(s.Updates); off += chunk {
		end := off + chunk
		if end > len(s.Updates) {
			end = len(s.Updates)
		}
		chunks = append(chunks, s.Updates[off:end])
	}
	e, err := New(testCfg, Options{Shards: shards, BatchSize: 1024, Queue: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()

	producers := shards
	b.ReportMetric(float64(producers), "producers")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	b.ReportAllocs()
	b.ResetTimer()
	var next, fed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if fed.Load() >= int64(b.N) {
					return
				}
				c := chunks[int(next.Add(1))%len(chunks)]
				if err := e.Ingest(c); err != nil {
					b.Error(err)
					return
				}
				fed.Add(int64(len(c)))
			}
		}()
	}
	wg.Wait()
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	// Normalize ns/op to the updates actually ingested (the chunked
	// producers overshoot b.N by at most producers*chunk updates).
	b.ReportMetric(float64(fed.Load())/float64(b.N), "updatesPerOp")
}

// BenchmarkEngineQueryIngestInterleave is the regression benchmark for
// the query/ingest interleave cost: one producer keeps ingesting while
// the bench goroutine queries after every chunk. "point" uses the
// snapshot-free per-shard Estimate; "global" rebuilds (or reuses) the
// merged view through the generation-tagged cache, which is checked
// before the engine mutex — so neither query flavor stalls the
// producer's partitioning. ns/op is per query+chunk round.
func BenchmarkEngineQueryIngestInterleave(b *testing.B) {
	s, _ := fig1Stream(42)
	const chunk = 512
	run := func(b *testing.B, query func(e *Engine) error) {
		e, err := New(testCfg, Options{Shards: 4, BatchSize: 256, Queue: 8})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		b.ReportAllocs()
		b.ResetTimer()
		off := 0
		for i := 0; i < b.N; i++ {
			end := off + chunk
			if end > len(s.Updates) {
				off, end = 0, chunk
			}
			if err := e.Ingest(s.Updates[off:end]); err != nil {
				b.Fatal(err)
			}
			off = end
			if err := query(e); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(e.Stats().SnapshotBuilds)/float64(b.N), "snapshots/op")
	}
	b.Run("point", func(b *testing.B) {
		run(b, func(e *Engine) error {
			_, err := e.Estimate(uint64(b.N) % (1 << 16))
			return err
		})
	})
	b.Run("global", func(b *testing.B) {
		run(b, func(e *Engine) error {
			_, err := e.HeavyHitters()
			return err
		})
	})
}

// BenchmarkEngineEstimateBatch is the regression benchmark for the
// batched snapshot-free point-query path on a quiet engine: before
// every read the bench goroutine ingests a chunk and flushes it with
// the timer stopped, then reads a fixed index set — "batched" through
// one EstimateBatch call, "scalar" through a loop of Estimate. Only
// the read is on the clock, so ns/op is the cost of one full index-set
// read; divide by indexes/op for the per-index cost the regression
// gate compares. The acceptance ratio is per-INDEX: batched must
// amortize the per-query routing and locking across the batch, >= 2x
// over the scalar loop at batch >= 256. snapshots/op must stay 0 for
// both flavors. BenchmarkEngineEstimateBatchAfterWrite is the same
// read without the flush.
func BenchmarkEngineEstimateBatch(b *testing.B) {
	benchEstimateBatch(b, true)
}

// BenchmarkEngineEstimateBatchAfterWrite is BenchmarkEngineEstimateBatch
// without the flush: each read follows an unflushed 512-update chunk,
// so the clock also carries the read-after-write cost — applying the
// involved shards' pending runs and waiting out their inboxes.
func BenchmarkEngineEstimateBatchAfterWrite(b *testing.B) {
	benchEstimateBatch(b, false)
}

func benchEstimateBatch(b *testing.B, flush bool) {
	s, _ := fig1Stream(42)
	const chunk = 512
	run := func(b *testing.B, size int, query func(e *Engine, idxs []uint64) error) {
		idxs := make([]uint64, size)
		for j := range idxs {
			idxs[j] = uint64(j*2654435761) % (1 << 16)
		}
		e, err := New(testCfg, Options{Shards: 4, BatchSize: 256, Queue: 8})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		b.ReportAllocs()
		b.ResetTimer()
		off := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			end := off + chunk
			if end > len(s.Updates) {
				off, end = 0, chunk
			}
			if err := e.Ingest(s.Updates[off:end]); err != nil {
				b.Fatal(err)
			}
			off = end
			if flush {
				if err := e.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			if err := query(e, idxs); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(size), "indexes/op")
		b.ReportMetric(float64(e.Stats().SnapshotBuilds)/float64(b.N), "snapshots/op")
	}
	for _, size := range []int{4, 8, 16, 64, 128, 256, 512, 4096} {
		size := size
		b.Run(fmt.Sprintf("batched/size=%d", size), func(b *testing.B) {
			run(b, size, func(e *Engine, idxs []uint64) error {
				_, err := e.EstimateBatch(idxs)
				return err
			})
		})
		b.Run(fmt.Sprintf("scalar/size=%d", size), func(b *testing.B) {
			run(b, size, func(e *Engine, idxs []uint64) error {
				for _, i := range idxs {
					if _, err := e.Estimate(i); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// readShardCounts are the shard counts the read benchmarks run at: one
// shard per CPU, and 4.
func readShardCounts() []int {
	if n := runtime.GOMAXPROCS(0); n != 4 {
		return []int{n, 4}
	}
	return []int{4}
}

// newReadEngine builds a heavy-hitters + support-sampler engine with
// the whole Figure 1 stream ingested and flushed.
func newReadEngine(b *testing.B, shards int) *Engine {
	s, _ := fig1Stream(42)
	e, err := New(testCfg, Options{
		Shards: shards, BatchSize: 256, Queue: 8,
		Structures: HeavyHitters | SupportSampler,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Ingest(s.Updates); err != nil {
		b.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkEngineSupport times one all-shard Support recovery on a
// flushed engine: every shard decodes its own support sampler, so the
// per-shard decodes either overlap or add up depending on where they
// run. ns/op is per Support call.
func BenchmarkEngineSupport(b *testing.B) {
	for _, shards := range readShardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := newReadEngine(b, shards)
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Support(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineProbeBatch times one 256-index ProbeBatch on a flushed
// engine, the membership twin of BenchmarkEngineEstimateBatch's quiet
// batched read. ns/op is per call.
func BenchmarkEngineProbeBatch(b *testing.B) {
	idxs := make([]uint64, 256)
	for j := range idxs {
		idxs[j] = uint64(j*2654435761) % (1 << 16)
	}
	for _, shards := range readShardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := newReadEngine(b, shards)
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ProbeBatch(idxs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineEstimateBatchIngesting times a 256-index EstimateBatch
// while a producer goroutine ingests 512-update chunks without pause,
// so reads and shard applies contend for the shards. ns/op is per
// read; producer_keys/s is the producer's ingest rate over the same
// interval, so a read path that stalls ingest shows there.
func BenchmarkEngineEstimateBatchIngesting(b *testing.B) {
	s, _ := fig1Stream(42)
	idxs := make([]uint64, 256)
	for j := range idxs {
		idxs[j] = uint64(j*2654435761) % (1 << 16)
	}
	const chunk = 512
	for _, shards := range readShardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e, err := New(testCfg, Options{Shards: shards, BatchSize: 256, Queue: 8})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			var stop atomic.Bool
			var ingested atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for off := 0; !stop.Load(); off += chunk {
					if off+chunk > len(s.Updates) {
						off = 0
					}
					if err := e.Ingest(s.Updates[off : off+chunk]); err != nil {
						b.Error(err)
						return
					}
					ingested.Add(chunk)
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			from := ingested.Load()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := e.EstimateBatch(idxs); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			keys := ingested.Load() - from
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
			b.ReportMetric(float64(keys)/elapsed.Seconds(), "producer_keys/s")
		})
	}
}

// BenchmarkSingleWriterBaseline is the same workload through one
// bounded.HeavyHitters on the bench goroutine — the no-engine reference
// point for the shards=1 overhead and the scaling ratio.
func BenchmarkSingleWriterBaseline(b *testing.B) {
	s, _ := fig1Stream(42)
	hh := must(bounded.NewHeavyHitters(testCfg))
	b.ReportAllocs()
	b.ResetTimer()
	const chunk = 2048
	for done := 0; done < b.N; {
		for off := 0; off < len(s.Updates) && done < b.N; off += chunk {
			end := off + chunk
			if end > len(s.Updates) {
				end = len(s.Updates)
			}
			if take := b.N - done; end-off > take {
				end = off + take
			}
			hh.UpdateBatch(s.Updates[off:end])
			done += end - off
		}
	}
}
