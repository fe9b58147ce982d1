// Package engine is the sharded concurrent ingest layer over the
// bounded-deletion sketch library (module root package "repro").
//
// Every structure in the library is single-writer: updates and queries
// share per-structure scratch, which is where the zero-allocation hot
// path comes from, and why one instance cannot absorb updates from many
// goroutines. The engine turns that constraint into the scaling story
// used by production deployments of bounded-deletion sketches (e.g. the
// SpaceSaving± line of work): it owns S single-writer shards, one
// goroutine each, hash-partitions incoming batches across them with the
// library's fast-range hash, and answers queries from merged snapshots.
//
//	              Ingest(batch)
//	                   │ plan: one batch hash evaluation computes every
//	                   │ update's shard; scatter indices+deltas by column
//	   ┌───────────────┼───────────────┐
//	[shard 0]       [shard 1]  ...  [shard S-1]   bounded channels of
//	goroutine        goroutine       goroutine    columnar batches,
//	   │                │                │        blocking = backpressure
//	sketches         sketches        sketches     same Config ⇒ same seed
//	   │  └────────── snapshot ∘ merge ───────┘
//	   │                │
//	   │            global Query (HeavyHitters, L1, L0, Sample, ...)
//	   └─ routed Query (Estimate, EstimateBatch, Probe, Support):
//	      answered by the OWNING shard(s), snapshot-free — no flush
//	      barrier, no merged-view rebuild. EstimateBatch mirrors
//	      Ingest: one hash evaluation computes every queried index's
//	      shard, columns scatter, each shard answers its column on the
//	      caller's goroutine under that shard's lock, results
//	      reassemble in input order. ProbeBatch and Support decode in
//	      the shard goroutines, concurrently.
//
// Each shard goroutine receives ready-to-apply column batches and fans
// them to its structures' UpdateColumns — the plan → hash → apply
// pipeline runs end to end without re-deriving an index per item.
//
// Correctness rests on three properties the library guarantees:
//
//  1. Mergeability: all shards build their structures from the SAME
//     Config, so hash functions agree and two instances combine by
//     coordinate-wise addition (Merge). A merged snapshot answers for
//     the whole stream; in the sketches' exact regimes the answer is
//     identical to a single-writer structure fed the same updates.
//  2. Snapshot isolation: snapshots are taken inside each shard's
//     goroutine (serialized with its ingest), so queries never race
//     updates; -race clean with any number of producers.
//  3. Partition completeness: the fast-range partition hash routes
//     EVERY update for an index to one shard, so that shard's live
//     structure alone answers point queries for the index — in the
//     sketches' exact regimes identically to a single-writer structure
//     fed that shard's substream, and generally with LESS collision
//     noise than a merged table.
//
// Choose the engine over direct bounded.* use when ingest throughput is
// the bottleneck and multiple cores (or multiple producer goroutines)
// are available; stay with a direct structure when a single goroutine
// can keep up — global merged queries cost S snapshots plus S-1 merges
// when the generation-tagged view cache is stale (point queries never
// pay that; they serialize only with the owning shard's ingest).
//
// # Durability
//
// SnapshotPartitioned serializes every shard's live structures in
// place (no merge) under a versioned envelope carrying the shard
// count, partition-hash coefficients, Config echo, structure set, and
// generation. RestorePartitioned installs that state into a pristine
// same-config engine: on a topology match each shard's payload lands
// in its own worker and the routed query fast paths keep working
// (SnapshotBuilds stays 0); on a shard-count mismatch the payloads
// merge into shard 0 and the engine answers from its merged view —
// still exact, since the sketches are linear. Checkpoint and
// OpenCheckpoint put those snapshots through internal/ckpt's
// CRC-guarded atomic store, so a process can restart from disk
// without replaying its stream; OpenCheckpoint fills zero
// Options.Shards/Structures from the snapshot header.
package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	bounded "repro"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Structures selects which sketches every shard maintains; combine with
// bitwise OR. Each enabled structure costs its full space per shard.
type Structures uint32

const (
	// HeavyHitters enables the Section 3 eps-heavy-hitters structure.
	HeavyHitters Structures = 1 << iota
	// L1Estimator enables the Figure 4 / Theorem 8 L1 estimator.
	L1Estimator
	// L0Estimator enables the Figure 7 L0 (support size) estimator.
	L0Estimator
	// L1Sampler enables the Figure 3 perfect L1 sampler.
	L1Sampler
	// SupportSampler enables the Figure 8 support sampler.
	SupportSampler
	// L2HeavyHitters enables the Appendix A L2 heavy hitters.
	L2HeavyHitters
	// SyncSketch enables the s-sparse recovery sync sketch.
	SyncSketch
)

// Options configures an Engine. The zero value is usable: it means
// "one shard per CPU, 1024-update hand-off batches, heavy hitters
// only, strict turnstile".
type Options struct {
	// Shards is the number of single-writer shards (default
	// runtime.GOMAXPROCS(0)).
	Shards int
	// BatchSize is the per-shard hand-off granularity in updates
	// (default 1024): Ingest accumulates per-shard runs of this size
	// before handing them to the shard goroutine.
	BatchSize int
	// Queue is the per-shard inbox depth in batches (default 4). A full
	// inbox blocks Ingest — bounded memory via backpressure.
	Queue int
	// Structures selects the sketches each shard maintains (default
	// HeavyHitters).
	Structures Structures
	// General selects general-turnstile variants where a structure has
	// one (heavy hitters' Cauchy L1 scale, the sampled-Cauchy L1
	// estimator). The default is the strict turnstile model.
	General bool
	// SamplerCopies is passed to bounded.NewL1Sampler (0 = its default).
	SamplerCopies int
	// SupportK is the support sampler's coordinate budget (default 32).
	SupportK int
	// SyncCapacity is the sync sketch's recoverable sparsity (default 256).
	SyncCapacity int
	// L1Delta is the strict L1 estimator's failure probability (0 = its
	// default; out-of-range values are rejected by engine.New). The
	// general variant (General: true) has no delta knob and ignores it.
	L1Delta float64
}

func (o *Options) fill() {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 1024
	}
	if o.Queue <= 0 {
		o.Queue = 4
	}
	if o.Structures == 0 {
		o.Structures = HeavyHitters
	}
	if o.SupportK <= 0 {
		o.SupportK = 32
	}
	if o.SyncCapacity <= 0 {
		o.SyncCapacity = 256
	}
}

// ErrNotEnabled is wrapped by query methods whose structure was not
// selected in Options.Structures.
var ErrNotEnabled = fmt.Errorf("engine: structure not enabled in Options.Structures")

// structSet is one shard's sketch collection. All shards hold sets
// built from the same Config, which is what makes them mergeable.
type structSet struct {
	hh  *bounded.HeavyHitters
	l1  *bounded.L1Estimator
	l0  *bounded.L0Estimator
	smp *bounded.L1Sampler
	sup *bounded.SupportSampler
	l2  *bounded.L2HeavyHitters
	syn *bounded.SyncSketch
}

func newStructSet(cfg bounded.Config, o Options) (*structSet, error) {
	s := &structSet{}
	var err error
	if o.Structures&HeavyHitters != 0 {
		if s.hh, err = bounded.NewHeavyHitters(cfg, bounded.WithStrict(!o.General)); err != nil {
			return nil, err
		}
	}
	if o.Structures&L1Estimator != 0 {
		opts := []bounded.Option{bounded.WithStrict(!o.General)}
		// L1Delta == 0 means "the constructor's default"; any other value
		// goes through WithFailureProb so an out-of-range delta surfaces
		// as NewL1Estimator's descriptive error instead of being clamped.
		// The general variant has no delta knob (its failure probability
		// is fixed by its row count), so L1Delta is ignored there as it
		// always was.
		if o.L1Delta != 0 && !o.General {
			opts = append(opts, bounded.WithFailureProb(o.L1Delta))
		}
		if s.l1, err = bounded.NewL1Estimator(cfg, opts...); err != nil {
			return nil, err
		}
	}
	if o.Structures&L0Estimator != 0 {
		if s.l0, err = bounded.NewL0Estimator(cfg); err != nil {
			return nil, err
		}
	}
	if o.Structures&L1Sampler != 0 {
		var opts []bounded.Option
		if o.SamplerCopies > 0 {
			opts = append(opts, bounded.WithCopies(o.SamplerCopies))
		}
		if s.smp, err = bounded.NewL1Sampler(cfg, opts...); err != nil {
			return nil, err
		}
	}
	if o.Structures&SupportSampler != 0 {
		if s.sup, err = bounded.NewSupportSampler(cfg, bounded.WithK(o.SupportK)); err != nil {
			return nil, err
		}
	}
	if o.Structures&L2HeavyHitters != 0 {
		if s.l2, err = bounded.NewL2HeavyHitters(cfg); err != nil {
			return nil, err
		}
	}
	if o.Structures&SyncSketch != 0 {
		if s.syn, err = bounded.NewSyncSketch(cfg, bounded.WithCapacity(o.SyncCapacity)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// UpdateColumns fans one pre-planned columnar batch to every enabled
// structure (shard.Ingester). The batch's index/delta columns are
// shared read-only; each structure hashes them with its own batch
// evaluators into the batch's reusable column scratch and applies.
func (s *structSet) UpdateColumns(b *core.Batch) {
	if s.hh != nil {
		s.hh.UpdateColumns(b)
	}
	if s.l1 != nil {
		s.l1.UpdateColumns(b)
	}
	if s.l0 != nil {
		s.l0.UpdateColumns(b)
	}
	if s.smp != nil {
		s.smp.UpdateColumns(b)
	}
	if s.sup != nil {
		s.sup.UpdateColumns(b)
	}
	if s.l2 != nil {
		s.l2.UpdateColumns(b)
	}
	if s.syn != nil {
		s.syn.UpdateColumns(b)
	}
}

// snapshot deep-clones every enabled structure. (Clone returns the
// bounded.Sketch interface; the set stores concrete types, hence the
// assertions.)
func (s *structSet) snapshot() *structSet {
	c := &structSet{}
	if s.hh != nil {
		c.hh = s.hh.Clone().(*bounded.HeavyHitters)
	}
	if s.l1 != nil {
		c.l1 = s.l1.Clone().(*bounded.L1Estimator)
	}
	if s.l0 != nil {
		c.l0 = s.l0.Clone().(*bounded.L0Estimator)
	}
	if s.smp != nil {
		c.smp = s.smp.Clone().(*bounded.L1Sampler)
	}
	if s.sup != nil {
		c.sup = s.sup.Clone().(*bounded.SupportSampler)
	}
	if s.l2 != nil {
		c.l2 = s.l2.Clone().(*bounded.L2HeavyHitters)
	}
	if s.syn != nil {
		c.syn = s.syn.Clone().(*bounded.SyncSketch)
	}
	return c
}

// merge folds other into s, structure by structure. other must not be
// used afterwards.
func (s *structSet) merge(other *structSet) error {
	if s.hh != nil {
		if err := s.hh.Merge(other.hh); err != nil {
			return err
		}
	}
	if s.l1 != nil {
		if err := s.l1.Merge(other.l1); err != nil {
			return err
		}
	}
	if s.l0 != nil {
		if err := s.l0.Merge(other.l0); err != nil {
			return err
		}
	}
	if s.smp != nil {
		if err := s.smp.Merge(other.smp); err != nil {
			return err
		}
	}
	if s.sup != nil {
		if err := s.sup.Merge(other.sup); err != nil {
			return err
		}
	}
	if s.l2 != nil {
		if err := s.l2.Merge(other.l2); err != nil {
			return err
		}
	}
	if s.syn != nil {
		if err := s.syn.Merge(other.syn); err != nil {
			return err
		}
	}
	return nil
}

func (s *structSet) spaceBits() int64 {
	var total int64
	if s.hh != nil {
		total += s.hh.SpaceBits()
	}
	if s.l1 != nil {
		total += s.l1.SpaceBits()
	}
	if s.l0 != nil {
		total += s.l0.SpaceBits()
	}
	if s.smp != nil {
		total += s.smp.SpaceBits()
	}
	if s.sup != nil {
		total += s.sup.SpaceBits()
	}
	if s.l2 != nil {
		total += s.l2.SpaceBits()
	}
	if s.syn != nil {
		total += s.syn.SpaceBits()
	}
	return total
}

// Engine is the sharded ingest engine. All methods are safe for
// concurrent use by multiple goroutines; ingest from many producers is
// the intended deployment. Global queries serialize with each other on
// queryMu (the merged snapshot's query paths share scratch) but — when
// the generation-tagged view cache is warm — never touch the engine
// mutex, so a query burst does not stall producers' partitioning.
// Point queries (Estimate) route to the owning shard, run on the
// caller's goroutine and serialize only with that shard's ingest.
type Engine struct {
	mu      sync.Mutex // engine state: pending buffers, workers, view rebuild
	queryMu sync.Mutex // serializes queries over the cached merged view
	cfg     bounded.Config
	opt     Options
	part    *hash.KWise
	workers []*shard.Worker
	sets    []*structSet // guarded by the shard locks; touch via Run or DoAsync
	pending []*core.Batch
	// Partition-plan scratch (guarded by mu): the whole incoming batch's
	// keys and shard assignments, computed in one batch hash evaluation
	// before the columnar scatter.
	planKeys   []uint64
	planShards []uint64
	// inflight counts producers handing filled buffers to shard inboxes
	// and routed reads running outside e.mu;
	// flushLocked waits for them so a flush (and therefore a
	// merged view, and Close) covers every Ingest whose locked section
	// completed.
	inflight sync.WaitGroup
	// gen is bumped on every state-changing Ingest/Restore; a cached
	// view is valid iff viewGen == gen. All three cache fields are
	// atomics so the global-query fast path can check them before
	// taking any engine lock.
	gen     atomic.Uint64
	viewGen atomic.Uint64
	hasView atomic.Bool
	view    atomic.Pointer[structSet] // written under mu, queried under queryMu
	closed  atomic.Bool               // transitions under mu
	// snapshotBuilds counts merged-view rebuilds. It is a plain atomic —
	// not an obs.Counter — because its exactness backs the routed-query
	// contract ("Estimate never builds a snapshot") in every build
	// flavor, including -tags noobs where obs counters read zero.
	snapshotBuilds atomic.Int64
	// met is the engine-level observability cell block (stats.go);
	// zero-size and recording-free under -tags noobs.
	met engineMetrics
	// restored flips (permanently) when Restore imports external state:
	// imported mass lands in shard 0 only, so the per-shard point-query
	// routing loses its "owning shard holds the index's entire mass"
	// invariant and Estimate falls back to the merged view.
	restored atomic.Bool
}

// partitionSeedSalt decorrelates the partition hash from the structure
// seeds derived from the same Config.Seed.
const partitionSeedSalt = 0x5DEECE66D

// New builds and starts an engine. Unlike the root package's
// constructors it returns Config validation problems as an error.
func New(cfg bounded.Config, opts Options) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opts.fill()
	e := &Engine{
		cfg:     cfg,
		opt:     opts,
		part:    hash.NewPairwise(rand.New(rand.NewSource(cfg.Seed ^ partitionSeedSalt))),
		workers: make([]*shard.Worker, opts.Shards),
		sets:    make([]*structSet, opts.Shards),
		pending: make([]*core.Batch, opts.Shards),
	}
	for i := range e.workers {
		set, err := newStructSet(cfg, opts)
		if err != nil {
			for j := 0; j < i; j++ {
				e.workers[j].Close()
			}
			return nil, err
		}
		e.sets[i] = set
		// Applied batches return to the shared columnar arena. The shard
		// name labels the worker goroutine in CPU profiles and names its
		// apply regions in execution traces.
		e.workers[i] = shard.NewNamed(e.sets[i], opts.Queue, core.PutBatch, strconv.Itoa(i))
		e.pending[i] = core.GetBatch()
	}
	return e, nil
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return e.opt.Shards }

// Structures returns the structure set every shard maintains, with
// defaults filled in — the set a networked agent enumerates when
// deciding which Snapshot kinds to ship.
func (e *Engine) Structures() Structures { return e.opt.Structures }

// Generation returns the engine's state generation: it advances on
// every state-changing Ingest and Restore and is stable across queries,
// flushes, and snapshots. Two equal readings with no error in between
// mean the engine's sketch state is unchanged — the token the
// networked agent's incremental sync compares against its last ACKed
// snapshot to skip shipping sketches that cannot have moved.
//
// Read the generation BEFORE marshaling a snapshot: ingest racing the
// marshal can only make the snapshot carry MORE than the recorded
// generation claims, so acting on a stale reading re-sends state (a
// full-snapshot replacement is idempotent) rather than ever skipping
// unsent state.
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// ShardOf reports which shard owns index i — the fast-range partition
// hash that routes i's updates and its point queries. Exposed so
// tooling (cmd/bdquery's routing report, load-balance diagnostics) can
// explain where a batched read fanned out; the mapping is fixed for
// the engine's lifetime.
func (e *Engine) ShardOf(i uint64) int { return e.shardOf(i) }

// shardOf maps an index to its owning shard with the library's
// fast-range hash — the same reduction the sketches use for buckets.
func (e *Engine) shardOf(i uint64) int {
	return int(e.part.Range(i, uint64(e.opt.Shards)))
}

// Ingest partitions a batch across the shards columnar-ly: one pass
// extracts the key column, one batch hash evaluation computes every
// update's shard, and a scatter pass appends indices and deltas into
// per-shard column batches. Runs of BatchSize updates hand off to the
// shard goroutines ready to apply — the shards never re-derive
// partition or bucket indices item-by-item. Ingest blocks when a
// shard's inbox is full (backpressure) and is safe to call from many
// producer goroutines concurrently. The input slice is copied; the
// caller may reuse it immediately.
func (e *Engine) Ingest(batch []bounded.Update) error {
	if len(batch) == 0 {
		return nil
	}
	start := obs.Now()
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return fmt.Errorf("engine: Ingest on closed engine")
	}
	// Plan: shard keys for the whole batch in one straight-line hash
	// sweep, then scatter by column. Each cap is checked independently:
	// EstimateBatch grows only planShards, so the two scratch slices do
	// not move in lockstep.
	n := len(batch)
	if cap(e.planKeys) < n {
		e.planKeys = make([]uint64, n)
	}
	if cap(e.planShards) < n {
		e.planShards = make([]uint64, n)
	}
	keys, shards := e.planKeys[:n], e.planShards[:n]
	for j, u := range batch {
		keys[j] = u.Index
	}
	e.part.RangeBatch(keys, uint64(e.opt.Shards), shards)
	// Scatter under the lock; hand filled buffers off OUTSIDE it, so a
	// full shard inbox blocks only this producer — other producers keep
	// partitioning, and queries keep answering (a merged-view query
	// waits, via inflight, only when it needs a fresh view; a routed
	// read waits only for the inboxes of the shards it reads).
	// Concurrent producers may then interleave their filled buffers in a
	// shard's inbox in either order; every structure's state is a
	// commutative fold of updates, so shard state is unaffected.
	type sendJob struct {
		shard int
		buf   *core.Batch
	}
	var full []sendJob
	for j, u := range batch {
		s := shards[j]
		p := e.pending[s]
		p.Append(u.Index, u.Delta)
		if p.Len() >= e.opt.BatchSize {
			full = append(full, sendJob{shard: int(s), buf: p})
			e.pending[s] = core.GetBatch()
		}
	}
	e.gen.Add(1)
	if len(full) > 0 {
		e.inflight.Add(1)
	}
	e.mu.Unlock()
	if len(full) > 0 {
		for _, j := range full {
			e.workers[j.shard].Send(j.buf)
		}
		e.met.batchesSent.Add(int64(len(full)))
		e.inflight.Done()
	}
	e.met.ingestCalls.Inc()
	e.met.ingestedKeys.Add(int64(n))
	e.met.ingestNanos.ObserveSince(start)
	return nil
}

// flushLocked pushes every pending run to its shard and waits until all
// shards have drained their inboxes. Callers hold e.mu.
func (e *Engine) flushLocked() {
	e.inflight.Wait() // in-flight producer hand-offs must land first
	for s := range e.pending {
		if e.pending[s].Len() > 0 {
			e.workers[s].Send(e.pending[s])
			e.met.batchesSent.Inc()
			e.pending[s] = core.GetBatch()
		}
	}
	barriers := make([]<-chan struct{}, len(e.workers))
	for i, w := range e.workers {
		barriers[i] = w.DoAsync(nil)
	}
	for _, b := range barriers {
		<-b
	}
}

// Flush blocks until every update passed to Ingest so far has been
// applied by its shard.
func (e *Engine) Flush() error {
	start := obs.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("engine: Flush on closed engine")
	}
	e.flushLocked()
	e.met.flushCalls.Inc()
	e.met.flushNanos.ObserveSince(start)
	return nil
}

// withView runs f over the merged snapshot. Structure queries mutate
// per-structure scratch (that is where the hot path's zero allocations
// come from), so concurrent queries against the shared cached view
// serialize on queryMu. The generation-tagged cache is checked BEFORE
// the engine mutex: a query burst against a warm cache never touches
// e.mu, so it cannot stall producers partitioning under it — the
// query/ingest interleave cost is one atomic load plus queryMu.
func (e *Engine) withView(f func(*structSet) error) error {
	start := obs.Now()
	defer func() {
		e.met.mergedQueries.Inc()
		e.met.mergedNanos.ObserveSince(start)
	}()
	if e.hasView.Load() && e.viewGen.Load() == e.gen.Load() {
		e.queryMu.Lock()
		if e.closed.Load() {
			e.queryMu.Unlock()
			return fmt.Errorf("engine: query on closed engine")
		}
		// Re-verify under queryMu: the cache may have gone stale between
		// the check and the lock; if so, fall through to the slow path.
		if e.hasView.Load() && e.viewGen.Load() == e.gen.Load() {
			err := f(e.view.Load())
			e.queryMu.Unlock()
			return err
		}
		e.queryMu.Unlock()
	}
	// Slow path: (re)build the merged view under the engine mutex, then
	// release it before running the query — only queryMu is held while
	// the query walks the view, so producers resume immediately.
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return fmt.Errorf("engine: query on closed engine")
	}
	v, err := e.mergedViewLocked()
	if err != nil {
		e.mu.Unlock()
		return err
	}
	e.queryMu.Lock()
	e.mu.Unlock()
	err = f(v)
	e.queryMu.Unlock()
	return err
}

// mergedViewLocked returns the merged snapshot of all shards, flushing
// first when the cache is stale. The result is cached until the next
// Ingest, so query bursts between ingest rounds rebuild nothing: a
// valid cache means no Ingest completed since the view was built,
// hence nothing pending or in flight to flush. Callers hold e.mu.
func (e *Engine) mergedViewLocked() (*structSet, error) {
	if e.hasView.Load() && e.viewGen.Load() == e.gen.Load() {
		return e.view.Load(), nil
	}
	// The rebuild is the engine's most expensive maintenance step, so it
	// gets a trace task (flush + clone fan-out + merge chain show up as
	// one unit in `go tool trace`) and a latency histogram observation.
	start := obs.Now()
	task := obs.StartTask(context.Background(), "engine.snapshotBuild")
	defer task.End()
	e.flushLocked()
	// Every Ingest whose locked section completed has bumped gen by now
	// (it did so under e.mu) and been flushed; later Ingests are blocked
	// on e.mu, so this generation stamp covers exactly what the view
	// will hold.
	genAt := e.gen.Load()
	e.snapshotBuilds.Add(1)
	snaps := make([]*structSet, len(e.workers))
	barriers := make([]<-chan struct{}, len(e.workers))
	cloneSpan := obs.StartRegion(task.Context(), "engine.cloneShards")
	for i, w := range e.workers {
		i, set := i, e.sets[i]
		barriers[i] = w.DoAsync(func() { snaps[i] = set.snapshot() })
	}
	for _, b := range barriers {
		<-b
	}
	cloneSpan.End()
	mergeSpan := obs.StartRegion(task.Context(), "engine.mergeShards")
	merged := snaps[0]
	for _, s := range snaps[1:] {
		if err := merged.merge(s); err != nil {
			mergeSpan.End()
			return nil, err
		}
	}
	mergeSpan.End()
	e.met.snapshotNanos.ObserveSince(start)
	e.view.Store(merged)
	e.viewGen.Store(genAt)
	e.hasView.Store(true)
	return merged, nil
}

// lockRouted acquires e.mu for a routed (snapshot-free) query: it
// fails fast on a closed engine and reports fallback=true — WITHOUT
// holding the mutex — when Restore won the race between the caller's
// lock-free restored check and the Lock (Restore flips the flag under
// e.mu, so this re-check is authoritative; skipping it would let
// per-shard routing silently omit freshly imported mass). On (false,
// nil) the caller holds e.mu and owns the routed path.
func (e *Engine) lockRouted() (fallback bool, err error) {
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return false, fmt.Errorf("engine: query on closed engine")
	}
	if e.restored.Load() {
		e.mu.Unlock()
		return true, nil
	}
	return false, nil
}

// claimLocked detaches shard s's pending run for a routed read,
// replacing it with a fresh pooled batch, and stashes it with the
// shard's worker; an empty run is left in place. A stashed run counts
// as a batch sent. The read's Run applies it inline — read-your-writes
// without an inbox round trip — and so does any Run that starts after
// the caller releases e.mu, so no later read can miss it either. The
// stash never waits on the shard, so e.mu is never held across one.
// The caller holds e.mu and must register with e.inflight before
// releasing it.
func (e *Engine) claimLocked(s int) {
	p := e.pending[s]
	if p.Len() == 0 {
		return
	}
	e.pending[s] = core.GetBatch()
	e.met.batchesSent.Inc()
	e.workers[s].Stash(p)
}

// shardColumn is one shard's slice of a batched routed read: the
// queried keys it owns, their positions in the input, and the shard's
// inbox mark when the read was planned.
type shardColumn struct {
	keys []uint64
	pos  []int
	mark uint64
}

// planReadLocked plans a batched routed read: every index's owning
// shard in one batch hash evaluation — the same evaluator and
// shard-column scratch Ingest plans with, under the same lock (idxs
// already IS the key column, so the planKeys scratch is not needed) —
// then a scatter of the index column by owning shard, and a claim of
// each involved shard's pending run, the batched form of the scalar
// read's inline apply. The columns outlive the lock, so they are
// per-call storage, not the mu-guarded plan scratch. The caller holds
// e.mu.
func (e *Engine) planReadLocked(idxs []uint64) []shardColumn {
	n := len(idxs)
	if cap(e.planShards) < n {
		e.planShards = make([]uint64, n)
	}
	shards := e.planShards[:n]
	e.part.RangeBatch(idxs, uint64(e.opt.Shards), shards)
	cols := make([]shardColumn, e.opt.Shards)
	for j, s := range shards {
		cols[s].keys = append(cols[s].keys, idxs[j])
		cols[s].pos = append(cols[s].pos, j)
	}
	for s := range cols {
		if len(cols[s].keys) > 0 {
			e.claimLocked(s)
			cols[s].mark = e.workers[s].Mark()
		}
	}
	return cols
}

// HeavyHitters returns the eps-heavy coordinates of the full ingested
// stream, from the merged shard snapshots.
func (e *Engine) HeavyHitters() ([]uint64, error) {
	var out []uint64
	err := e.withView(func(v *structSet) error {
		if v.hh == nil {
			return fmt.Errorf("HeavyHitters: %w", ErrNotEnabled)
		}
		out = v.hh.HeavyHitters()
		return nil
	})
	return out, err
}

// Estimate returns the heavy-hitters structure's point estimate of
// f_i, answered snapshot-free by the index's OWNING shard: the same
// fast-range partition hash that routes i's updates routes the query,
// and that shard's live structure holds i's entire mass. The query
// runs on the caller's goroutine under the shard's lock — serialized
// with that shard's ingest, after the shard's pending run (if any) is
// applied inline — so it never pays the all-shard flush barrier,
// never wakes the shard goroutine and never builds a merged snapshot
// (SnapshotBuilds does not move). Routing to the owner is also
// slightly more accurate than querying a merged table: the
// owning shard's counters only carry collision noise from its own
// partition of the key space.
//
// Exception: once Restore has imported external state (which lands in
// shard 0 only), the owning shard no longer holds an index's entire
// mass, so Estimate permanently reverts to answering from the merged
// view — correct over the union, at the usual merged-query cost.
func (e *Engine) Estimate(i uint64) (float64, error) {
	if e.restored.Load() {
		return e.estimateView(i)
	}
	start := obs.Now()
	if fallback, err := e.lockRouted(); err != nil {
		return 0, err
	} else if fallback {
		return e.estimateView(i)
	}
	s := e.shardOf(i)
	e.claimLocked(s)
	// Registering with inflight keeps Flush/Close honest: they wait for
	// the inline apply and read below, so they can never observe (or
	// tear down) the shard mid-query.
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()
	set := e.sets[s]
	var out float64
	var qErr error
	e.workers[s].Run(func() {
		if set.hh == nil {
			qErr = fmt.Errorf("Estimate: %w", ErrNotEnabled)
			return
		}
		out = set.hh.Estimate(i)
	})
	e.met.pointQueries.Inc()
	e.met.pointNanos.ObserveSince(start)
	return out, qErr
}

// estimateView answers a point estimate from the merged view — the
// post-Restore fallback shared by Estimate's two check sites.
func (e *Engine) estimateView(i uint64) (float64, error) {
	var out float64
	err := e.withView(func(v *structSet) error {
		if v.hh == nil {
			return fmt.Errorf("Estimate: %w", ErrNotEnabled)
		}
		out = v.hh.Estimate(i)
		return nil
	})
	return out, err
}

// estimateBatchCutover is the batch size at or below which
// EstimateBatch answers through per-index routed queries instead of
// the planned path: the measured crossover where batch planning
// overhead stops paying for itself. This is an ENGINE-level bar
// (shard scatter and plan setup), independent of the kernel layer's
// per-family vector cutovers (hash.KernelCutovers) — batches above it
// still route each shard column through the fused kernels, whose own
// calibrated bars decide scalar vs vector per call.
const estimateBatchCutover = 16

// EstimateBatch returns the heavy-hitters point estimate of every
// index in idxs, in input order — the batched, snapshot-free form of
// Estimate and the read-side mirror of Ingest's columnar plan: ONE
// batch hash evaluation computes every index's owning shard, the index
// set scatters by column into per-shard key lists, each involved shard
// answers its whole column on the caller's goroutine under the shard's
// lock with the structure's batched reader (one hash pass over the
// column, row-major table sweeps), and the answers reassemble into
// input positions. Like Estimate it pays no flush barrier and builds
// no merged view (SnapshotBuilds does not move); unlike N scalar calls
// it takes each involved shard's lock once per batch instead of once
// per index and hashes each column in one pass. Answers are
// bit-identical to calling Estimate once per index (duplicates simply
// repeat their estimate).
//
// After Restore has imported external state, the owning-shard
// invariant is gone and EstimateBatch answers from the merged view —
// still batched, still bit-identical to per-index Estimate (which
// falls back the same way).
func (e *Engine) EstimateBatch(idxs []uint64) ([]float64, error) {
	out := make([]float64, len(idxs))
	if len(idxs) == 0 {
		return out, nil
	}
	if e.opt.Structures&HeavyHitters == 0 {
		return nil, fmt.Errorf("EstimateBatch: %w", ErrNotEnabled)
	}
	// Small batches route through the scalar path: below the cutover
	// the plan (shard hash, per-shard column scatter, batched reader
	// setup) costs more than per-index owning-shard queries, so the
	// batched entry point would be SLOWER than a caller's own Estimate
	// loop — measured on the regression benchmark's quiet size=16 case
	// (planned path about 1.3x the scalar loop, 2x at size=4). Answers
	// are identical either way; Estimate handles the post-Restore
	// fallback itself.
	if len(idxs) <= estimateBatchCutover {
		for j, i := range idxs {
			v, err := e.Estimate(i)
			if err != nil {
				return nil, err
			}
			out[j] = v
		}
		return out, nil
	}
	if e.restored.Load() {
		return e.estimateBatchView(idxs, out)
	}
	start := obs.Now()
	if fallback, err := e.lockRouted(); err != nil {
		return nil, err
	} else if fallback {
		return e.estimateBatchView(idxs, out)
	}
	cols := e.planReadLocked(idxs)
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()
	// Each involved shard answers its key column under its own lock,
	// writing straight into its disjoint output positions.
	for s, c := range cols {
		if len(c.keys) == 0 {
			continue
		}
		set := e.sets[s]
		e.workers[s].RunAfter(c.mark, func() {
			est := set.hh.EstimateBatch(c.keys)
			for t, p := range c.pos {
				out[p] = est[t]
			}
		})
	}
	e.met.batchedQueries.Inc()
	e.met.batchedNanos.ObserveSince(start)
	return out, nil
}

// estimateBatchView answers a batched point query from the merged view
// — the post-Restore fallback shared by EstimateBatch's two check
// sites. out has len(idxs) entries and is returned on success.
func (e *Engine) estimateBatchView(idxs []uint64, out []float64) ([]float64, error) {
	err := e.withView(func(v *structSet) error {
		b := core.GetBatch()
		b.LoadKeys(idxs)
		v.hh.EstimateColumns(b, out)
		core.PutBatch(b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Probe reports whether index i is in the ingested stream's support,
// answered snapshot-free by the index's OWNING shard: the partition
// hash that routes i's updates routes the probe, and that shard's live
// support sampler holds i's entire substream — the same routing, and
// the same read on the caller's goroutine under the owner's lock, as
// Estimate. After Restore the owning-shard invariant is gone and the
// probe answers from the merged view.
func (e *Engine) Probe(i uint64) (bool, error) {
	if e.opt.Structures&SupportSampler == 0 {
		return false, fmt.Errorf("Probe: %w", ErrNotEnabled)
	}
	if e.restored.Load() {
		return e.probeView(i)
	}
	start := obs.Now()
	if fallback, err := e.lockRouted(); err != nil {
		return false, err
	} else if fallback {
		return e.probeView(i)
	}
	s := e.shardOf(i)
	e.claimLocked(s)
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()
	set := e.sets[s]
	var out bool
	e.workers[s].Run(func() { out = set.sup.Contains(i) })
	e.met.pointQueries.Inc()
	e.met.pointNanos.ObserveSince(start)
	return out, nil
}

// probeView answers a membership probe from the merged view — the
// post-Restore fallback shared by Probe's two check sites.
func (e *Engine) probeView(i uint64) (bool, error) {
	var out bool
	err := e.withView(func(v *structSet) error {
		out = v.sup.Contains(i)
		return nil
	})
	return out, err
}

// ProbeBatch reports, for every index in idxs in input order, whether
// it belongs to the stream's support — the batched, snapshot-free form
// of Probe and the membership twin of EstimateBatch: ONE batch hash
// evaluation computes every index's owning shard, the index set
// scatters by column into per-shard key lists, each involved shard
// answers its whole column in the shard's goroutine with the sampler's
// batched prober (one hash pass over the column, at most one decode per
// live recovery level), and the verdicts reassemble into input
// positions. The decodes cost milliseconds, so the involved shards run
// them concurrently rather than one after another on the caller. Like
// Probe it pays no flush barrier and builds no merged view; unlike N
// scalar calls it decodes each shard's level sketches once per batch
// instead of once per index. Verdicts are identical to calling Probe
// once per index. After Restore the owning-shard invariant is gone and
// ProbeBatch answers from the merged view, like Probe.
func (e *Engine) ProbeBatch(idxs []uint64) ([]bool, error) {
	out := make([]bool, len(idxs))
	if len(idxs) == 0 {
		return out, nil
	}
	if e.opt.Structures&SupportSampler == 0 {
		return nil, fmt.Errorf("ProbeBatch: %w", ErrNotEnabled)
	}
	if e.restored.Load() {
		return e.probeBatchView(idxs, out)
	}
	start := obs.Now()
	if fallback, err := e.lockRouted(); err != nil {
		return nil, err
	} else if fallback {
		return e.probeBatchView(idxs, out)
	}
	cols := e.planReadLocked(idxs)
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()
	// A probe decodes every live recovery level of the shard's sampler,
	// which costs milliseconds, so the involved shards decode
	// concurrently in their own goroutines; each drains its stashed run
	// before the closure runs.
	var barriers []<-chan struct{}
	for s, c := range cols {
		if len(c.keys) == 0 {
			continue
		}
		set := e.sets[s]
		barriers = append(barriers, e.workers[s].DoAsync(func() {
			verdicts := set.sup.ProbeBatch(c.keys)
			for t, p := range c.pos {
				out[p] = verdicts[t]
			}
		}))
	}
	for _, b := range barriers {
		<-b
	}
	e.met.batchedQueries.Inc()
	e.met.batchedNanos.ObserveSince(start)
	return out, nil
}

// probeBatchView answers a batched membership probe from the merged
// view — the post-Restore fallback shared by ProbeBatch's two check
// sites. out has len(idxs) entries and is returned on success.
func (e *Engine) probeBatchView(idxs []uint64, out []bool) ([]bool, error) {
	err := e.withView(func(v *structSet) error {
		b := core.GetBatch()
		b.LoadKeys(idxs)
		v.sup.ProbeColumns(b, out)
		core.PutBatch(b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// L1 returns the merged (1 +- eps) estimate of ||f||_1.
func (e *Engine) L1() (float64, error) {
	var out float64
	err := e.withView(func(v *structSet) error {
		if v.l1 == nil {
			return fmt.Errorf("L1: %w", ErrNotEnabled)
		}
		out = v.l1.Estimate()
		return nil
	})
	return out, err
}

// L0 returns the merged (1 +- eps) estimate of ||f||_0.
func (e *Engine) L0() (float64, error) {
	var out float64
	err := e.withView(func(v *structSet) error {
		if v.l0 == nil {
			return fmt.Errorf("L0: %w", ErrNotEnabled)
		}
		out = v.l0.Estimate()
		return nil
	})
	return out, err
}

// Sample draws one L1 sample from the merged sampler; ok is false when
// every sampler instance FAILed (the sampler never fabricates).
func (e *Engine) Sample() (bounded.Sample, bool, error) {
	var res bounded.Sample
	var ok bool
	err := e.withView(func(v *structSet) error {
		if v.smp == nil {
			return fmt.Errorf("Sample: %w", ErrNotEnabled)
		}
		res, ok = v.smp.Sample()
		return nil
	})
	return res, ok, err
}

// Support returns distinct support coordinates of the full ingested
// stream, sorted — answered snapshot-free by routing, like Estimate:
// the partition hash sends every update for an index to exactly one
// shard, so the union of the shards' LIVE support recoveries covers
// the full stream without cloning or merging a single sampler. Every
// shard decodes its own levels inside its own goroutine, after its
// pending run (the shards work concurrently, as in ProbeBatch), and
// the union reassembles outside. SnapshotBuilds does not move. After
// Restore the partition invariant is gone and Support answers from the
// merged view.
func (e *Engine) Support() ([]uint64, error) {
	if e.opt.Structures&SupportSampler == 0 {
		return nil, fmt.Errorf("Support: %w", ErrNotEnabled)
	}
	if e.restored.Load() {
		return e.supportView()
	}
	start := obs.Now()
	if fallback, err := e.lockRouted(); err != nil {
		return nil, err
	} else if fallback {
		return e.supportView()
	}
	// Every shard's pending run must apply before its recovery — the
	// all-shard form of the point query's inline apply.
	for s := range e.workers {
		e.claimLocked(s)
	}
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()
	// Like ProbeBatch's, the decodes run concurrently in the shard
	// goroutines, each after its shard's stashed run.
	results := make([][]uint64, len(e.workers))
	barriers := make([]<-chan struct{}, len(e.workers))
	for s, w := range e.workers {
		s, set := s, e.sets[s]
		barriers[s] = w.DoAsync(func() { results[s] = set.sup.Recover() })
	}
	for _, b := range barriers {
		<-b
	}
	// Partition completeness makes the per-shard recoveries disjoint;
	// the set union is belt and braces against a (fingerprint-verified,
	// hence overwhelmingly unlikely) forged decode.
	seen := make(map[uint64]struct{})
	var out []uint64
	for _, r := range results {
		for _, i := range r {
			if _, dup := seen[i]; !dup {
				seen[i] = struct{}{}
				out = append(out, i)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	e.met.batchedQueries.Inc()
	e.met.batchedNanos.ObserveSince(start)
	return out, nil
}

// supportView answers a support recovery from the merged view — the
// post-Restore fallback shared by Support's two check sites.
func (e *Engine) supportView() ([]uint64, error) {
	var out []uint64
	err := e.withView(func(v *structSet) error {
		out = v.sup.Recover()
		return nil
	})
	return out, err
}

// L2HeavyHitters returns the merged Appendix A L2 heavy hitters.
func (e *Engine) L2HeavyHitters() ([]uint64, error) {
	var out []uint64
	err := e.withView(func(v *structSet) error {
		if v.l2 == nil {
			return fmt.Errorf("L2HeavyHitters: %w", ErrNotEnabled)
		}
		out = v.l2.HeavyHitters()
		return nil
	})
	return out, err
}

// SyncSketch returns a private copy of the merged sync sketch — the
// full-stream sketch a peer exchange serializes, subtracts, and
// decodes. Mutating the copy does not affect the engine.
func (e *Engine) SyncSketch() (*bounded.SyncSketch, error) {
	var out *bounded.SyncSketch
	err := e.withView(func(v *structSet) error {
		if v.syn == nil {
			return fmt.Errorf("SyncSketch: %w", ErrNotEnabled)
		}
		out = v.syn.Clone().(*bounded.SyncSketch)
		return nil
	})
	return out, err
}

// sketchFor maps a single Structures bit to the merged view's sketch.
func (s *structSet) sketchFor(kind Structures) (bounded.Sketch, bool) {
	switch kind {
	case HeavyHitters:
		return s.hh, s.hh != nil
	case L1Estimator:
		return s.l1, s.l1 != nil
	case L0Estimator:
		return s.l0, s.l0 != nil
	case L1Sampler:
		return s.smp, s.smp != nil
	case SupportSampler:
		return s.sup, s.sup != nil
	case L2HeavyHitters:
		return s.l2, s.l2 != nil
	case SyncSketch:
		return s.syn, s.syn != nil
	}
	return nil, false
}

// Snapshot serializes the merged full-stream state of ONE structure
// (pass exactly one Structures bit) in the library's self-describing
// wire format: ship the bytes to a peer engine (Restore) or a direct
// bounded.UnmarshalSketch consumer, or write them to disk as a
// checkpoint. The merged view is built the same way queries build it,
// so a snapshot reflects every update Ingest accepted before the call.
func (e *Engine) Snapshot(kind Structures) ([]byte, error) {
	if kind == 0 || kind&(kind-1) != 0 {
		return nil, fmt.Errorf("engine: Snapshot takes exactly one Structures bit, got %b", kind)
	}
	var out []byte
	err := e.withView(func(v *structSet) error {
		sk, ok := v.sketchFor(kind)
		if !ok {
			return fmt.Errorf("Snapshot: %w", ErrNotEnabled)
		}
		var mErr error
		out, mErr = sk.MarshalBinary()
		return mErr
	})
	return out, err
}

// Restore merges a serialized sketch — an engine peer's Snapshot or any
// structure's MarshalBinary bytes — into this engine's state. The
// payload must hold a structure that is enabled in Options.Structures
// and was built from the same Config (hash-coefficient equality is
// enforced by the underlying Merge). The imported state lands in shard
// 0's structure, serialized through that shard's worker goroutine like
// any other mutation, and subsequent queries and Snapshots answer for
// the union of the local stream and the imported state. Because the
// imported mass is not partitioned by this engine's hash, Restore also
// permanently switches Estimate from per-shard routing to the merged
// view (see Estimate).
func (e *Engine) Restore(data []byte) error {
	sk, err := bounded.UnmarshalSketch(data)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("engine: Restore on closed engine")
	}
	set := e.sets[0]
	var mErr error
	<-e.workers[0].DoAsync(func() {
		switch v := sk.(type) {
		case *bounded.HeavyHitters:
			mErr = mergeInto(set.hh, v)
		case *bounded.L1Estimator:
			mErr = mergeInto(set.l1, v)
		case *bounded.L0Estimator:
			mErr = mergeInto(set.l0, v)
		case *bounded.L1Sampler:
			mErr = mergeInto(set.smp, v)
		case *bounded.SupportSampler:
			mErr = mergeInto(set.sup, v)
		case *bounded.InnerProduct:
			mErr = fmt.Errorf("engine: Restore of InnerProduct: %w", ErrNotEnabled)
		case *bounded.L2HeavyHitters:
			mErr = mergeInto(set.l2, v)
		case *bounded.SyncSketch:
			mErr = mergeInto(set.syn, v)
		default:
			mErr = fmt.Errorf("engine: Restore of unsupported sketch %T", sk)
		}
	})
	if mErr != nil {
		return mErr
	}
	// The merged view cache now lags shard 0's state, and point queries
	// must stop trusting per-shard routing: the imported mass is not
	// partitioned by the engine's hash.
	e.gen.Add(1)
	e.restored.Store(true)
	return nil
}

// mergeInto folds an imported sketch into a shard structure, reporting
// not-enabled for structures the engine does not maintain. The type
// parameter keeps the nil check on the CONCRETE pointer: a nil *X boxed
// in the Sketch interface would slip past an interface nil check.
func mergeInto[T interface {
	comparable
	bounded.Sketch
}](dst T, src bounded.Sketch) error {
	var zero T
	if dst == zero {
		return fmt.Errorf("Restore: %w", ErrNotEnabled)
	}
	return dst.Merge(src)
}

// SpaceBits reports the summed space of every shard's structures (the
// engine costs S times one structure set, the price of S-way write
// parallelism).
func (e *Engine) SpaceBits() (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return 0, fmt.Errorf("engine: SpaceBits on closed engine")
	}
	e.flushLocked()
	totals := make([]int64, len(e.workers))
	barriers := make([]<-chan struct{}, len(e.workers))
	for i, w := range e.workers {
		i, set := i, e.sets[i]
		barriers[i] = w.DoAsync(func() { totals[i] = set.spaceBits() })
	}
	for _, b := range barriers {
		<-b
	}
	var sum int64
	for _, t := range totals {
		sum += t
	}
	return sum, nil
}

// Close flushes pending updates and stops every shard goroutine. The
// engine cannot be used afterwards.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil
	}
	// Publish closure before tearing down workers: queries that start
	// after this point fail fast instead of racing the shutdown. Point
	// queries and producer hand-offs already in flight are covered by
	// flushLocked's inflight wait.
	e.closed.Store(true)
	start := obs.Now()
	e.flushLocked()
	for _, w := range e.workers {
		w.Close()
	}
	e.met.closeNanos.ObserveSince(start)
	return nil
}
