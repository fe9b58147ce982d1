// Package bounded is a from-scratch Go implementation of the algorithms
// in "Data Streams with Bounded Deletions" (Rajesh Jayaram and David P.
// Woodruff, PODS 2018, arXiv:1803.08777).
//
// # The model
//
// A data stream over a universe [n] is a sequence of updates
// (i, delta) applied to a frequency vector f. Splitting f = I - D into
// the insertion vector I and deletion-magnitude vector D, a stream has
// the L_p alpha-property when
//
//	||I + D||_p <= alpha * ||f||_p
//
// at query time (Definition 1). alpha = 1 is the insertion-only model;
// alpha = poly(n) is the unrestricted turnstile model. Real deletion
// workloads — network traffic differences, file synchronization,
// sensor occupancy — sit at small alpha, and there the paper replaces a
// log(n) factor in the space complexity of most fundamental streaming
// problems with log(alpha):
//
//	problem            turnstile lower bound      alpha-property here
//	eps-heavy hitters  eps^-1 log^2 n             eps^-1 log n log alpha
//	inner product      eps^-1 log n               eps^-1 log alpha
//	L1 estimation      log n                      log alpha
//	L0 estimation      eps^-2 log n               eps^-2 log alpha + log n
//	L1 sampling        log^2 n                    log n log alpha
//	support sampling   k log^2 n                  k log n log alpha
//
// # What this package provides
//
// One constructor per Figure 1 row, each wrapping the paper's algorithm
// for that problem (and each internal package also ships the
// unbounded-deletion baseline the paper compares against):
//
//   - NewHeavyHitters — Section 3 (CSSS, Figure 2)
//   - NewL1Estimator — Figure 4 (strict) / Theorem 8 (general)
//   - NewL0Estimator — Figure 7 (windowed KNW matrix)
//   - NewL1Sampler — Figure 3 (precision sampling over CSSS)
//   - NewSupportSampler — Figure 8 (windowed sparse recovery)
//   - NewInnerProduct — Theorem 2 (sampled, universe-reduced sketches)
//   - NewL2HeavyHitters — Appendix A
//   - NewTracker — exact alpha-property measurement (Definitions 1, 2)
//
// Constructors share one shape: NewX(cfg Config, opts ...Option)
// (*X, error). The Config carries the universal parameters (universe
// size, accuracy, assumed alpha, seed); functional options carry the
// structure-specific knobs — WithStrict selects the turnstile model
// (strict is the default), WithFailureProb tunes the strict L1
// estimator, WithCopies the sampler's parallel instances, WithK the
// support budget, WithCapacity the sync sketch's sparsity. Invalid
// configurations and out-of-range or non-applicable options return
// descriptive errors; nothing is silently clamped (the historical API
// replaced a bad L1 failure probability with 0.1 — that bug class is
// gone). The deprecated positional Must* wrappers have now been REMOVED
// after their one-release grace period; migrate as follows:
//
//	removed                          replacement
//	MustHeavyHitters(cfg, strict)    NewHeavyHitters(cfg, WithStrict(strict))
//	MustL1Estimator(cfg, s, delta)   NewL1Estimator(cfg, WithStrict(s), WithFailureProb(delta))
//	MustL0Estimator(cfg)             NewL0Estimator(cfg)
//	MustL1Sampler(cfg, copies)       NewL1Sampler(cfg, WithCopies(copies))
//	MustSupportSampler(cfg, k)       NewSupportSampler(cfg, WithK(k))
//	MustInnerProduct(cfg)            NewInnerProduct(cfg)
//	MustSyncSketch(cfg, capacity)    NewSyncSketch(cfg, WithCapacity(capacity))
//	MustL2HeavyHitters(cfg)          NewL2HeavyHitters(cfg)
//
// (Each New* returns (*X, error); the old wrappers panicked on invalid
// Config, so a mechanical translation is x, err := NewX(...); if err !=
// nil { panic(err) }.)
//
// Every structure implements the Sketch interface —
//
//	Update(i uint64, delta int64)
//	UpdateBatch(batch []Update)
//	UpdateColumns(b *Batch)
//	Merge(other Sketch) error
//	Clone() Sketch
//	SpaceBits() int64
//	MarshalBinary() ([]byte, error)
//	UnmarshalBinary([]byte) error
//
// — so generic code (the engine, a network shipper, a checkpointer)
// handles all eight uniformly. SpaceBits is an information-theoretic
// space account in the paper's cost model, which the benchmark harness
// uses to regenerate Figure 1 empirically. All randomness is seeded
// and deterministic.
//
// # Serialization: sketches cross process boundaries
//
// The paper's headline scenarios — distributed monitoring, file
// synchronization — have each site build a small linear sketch and
// ship it for merging elsewhere. MarshalBinary implements exactly
// that: a versioned, self-describing envelope (magic, kind byte,
// format version, Config echo) around the structure's state INCLUDING
// its hash coefficients, so the receiver reconstructs the identical
// linear map. UnmarshalBinary works on a zero-value receiver;
// UnmarshalSketch dispatches on the kind byte when the receiver does
// not know what it was sent; SketchKind peeks without restoring.
//
//	wire, _ := siteSketch.MarshalBinary()      // site: serialize
//	sk, err := bounded.UnmarshalSketch(wire)   // coordinator: restore
//	err = coordinator.Merge(sk)                // ... and merge
//
// In the sketches' exact regimes, marshal → ship → unmarshal → Merge
// is bit-identical to an in-process Clone + Merge (asserted by
// differential tests on the Fig1 workload for every structure), and
// the restored structure keeps ingesting: counters, sampling clocks,
// candidate trackers and norm scales all round-trip. Corrupt,
// truncated, or wrong-version payloads return errors, never panic —
// enforced by the FuzzUnmarshal target CI runs. The engine exposes the
// same mechanics at aggregate level via Engine.Snapshot/Restore;
// examples/distributedmerge runs the whole exchange across real OS
// processes.
//
// # Performance
//
// The update pipeline is allocation-free in steady state and built for
// throughput:
//
//   - Each Count-Sketch/CSSS row derives its bucket AND sign from ONE
//     4-wise polynomial evaluation (disjoint bit-fields of the 61-bit
//     output), with specialized straight-line Horner chains over
//     2^61 - 1 using lazy reductions, and Lemire multiply-shift fast
//     range instead of a hardware division per bucket.
//   - Query medians select in place over reusable scratch (quickselect
//     plus median networks for the common depths) — no sorting, no
//     allocation — and an update immediately followed by a query of the
//     same index reuses the update's hash evaluations.
//   - Candidate tracking is a bounded min-heap over a linear-probe
//     index: Offer never allocates once warm.
//
// Measured on the Figure 1 benchmarks (bench_test.go, containerized
// linux/amd64, Go 1.24; before/after binaries interleaved over 5
// rounds to cancel machine drift, medians reported), this pipeline
// rebuild moved the two hottest update paths from
//
//	BenchmarkFig1HeavyHittersStrict   669 ns/op  1 alloc/op  ->  184 ns/op  0 allocs/op  (3.6x; 4.1x on min-vs-min)
//	BenchmarkFig3AlphaL1Sampler      3059 ns/op  4 allocs/op -> 1002 ns/op  0 allocs/op  (3.1x)
//
// BENCH_1.json at the repository root archives the full post-change
// baseline (regenerate with `go test -run '^$' -bench 'Fig1|Fig2|Fig3'
// -benchmem | go run ./cmd/benchjson`); CI re-emits it on every push so
// future PRs can diff their perf trajectory.
//
// Beneath the batch evaluators sits a dispatchable kernel layer
// (internal/hash): the inner loops — Horner chains over 2^61 - 1,
// bucket+sign extraction, row gathers, column medians — route through
// a table chosen once at init. On amd64 CPUs with AVX2 the table
// points at hand-written 4-lane assembly (VPMULUDQ 32-bit-halves
// decomposition of the Mersenne-61 multiply); everywhere else, and
// under the purego build tag (`go test -tags purego ./...`), it
// points at the scalar loops. The two paths are bit-identical —
// asserted per kernel by differential and fuzz tests and per
// structure by whole-state wire comparisons — so sketches hashed on
// different hosts still merge exactly.
//
// The row-structured kernels are FUSED: one entry point takes the
// flat coefficient (or table) bundle for all sketch rows plus the row
// width and loops rows inside the call, so a whole multi-row batch
// evaluation (Buckets.BucketSignsBatch, PairRows.RangeBatchRows, the
// GatherSignRows/GatherSignDiffRows query gathers) pays ONE vector
// entry cost — the per-call vector-unit power-up after VZEROUPPER,
// ~1.5us on the reference Xeon — instead of one per row. Each
// dispatch compares its total key count (rows x batch length for the
// fused forms) against a per-family cutover calibrated at package
// init by a scalar-vs-vector microprobe on the running host;
// BD_KERNEL_CUTOVER overrides calibration (one integer for all
// families, or comma-separated family=value pairs), purego builds
// skip both and keep the scalar loops. hash.KernelCutovers and
// hash.KernelCutoverSource expose the resolved values; cmd/benchjson
// archives them with every baseline. Same-run ratios on the
// BENCH_8.json reference host: 1.85x on BucketSignsBatch at 1024
// keys vs scalar (2.35x at 4096), 7.9x on MedianOf7Cols, 1.9x on row
// gathers, with the fused-vs-per-row delta reported by the
// kernel=avx2 vs kernel=avx2-perrow sub-benchmarks. GOAMD64 does not
// change dispatch (detection is runtime CPUID), and single-CPU hosts
// see the full win — the kernels vectorize within one core, not
// across cores.
//
// # Batched ingest: the plan → hash → apply columnar pipeline
//
// Every structure accepts a batch of updates in one call — the
// preferred high-throughput path:
//
//	batch := make([]bounded.Update, 0, 4096)
//	// ... append network reads ...
//	hh.UpdateBatch(batch) // one call per structure per batch
//
// Internally every batch runs a three-stage columnar pipeline:
//
//  1. PLAN — the batch is laid out as contiguous index and delta
//     columns in a pooled arena Batch (UpdateBatch does this for you;
//     PlanBatch + UpdateColumns is the explicit form, and lets one
//     planned batch fan across several structures).
//  2. HASH — the structure's batch evaluators fill whole bucket/sign
//     columns per Count-Sketch row from the shared index column:
//     straight-line multiply-add loops with the row coefficients in
//     registers, no per-item function calls.
//  3. APPLY — the counter tables are swept row-major against the
//     pre-hashed columns (sequential column reads, one cache-resident
//     table row at a time), and candidate tracking re-estimates the
//     batch's DISTINCT indices in one further batched hash pass.
//
// The columnar path is bit-for-bit identical to feeding the same
// updates through Update: counter adds commute, per-counter write
// order is preserved, and sampling stages (CSSS past its rate-1
// regime, the precision sampler, subsampling levels) fall back to the
// per-item path exactly where rng draws occur, preserving the draw
// sequence. Differential tests assert this equality per structure and
// through the engine at 1/2/4/8 shards.
//
// # Querying: capability-typed interfaces and columnar batched reads
//
// The query side mirrors the ingest side. Where Sketch describes what
// every structure consumes, six small capability interfaces describe
// what each structure can answer — generic consumers declare the
// capability they need instead of switching on concrete types:
//
//	PointQuerier       Estimate(i) float64       HeavyHitters, L2HeavyHitters
//	BatchPointQuerier  + EstimateBatch/Columns   HeavyHitters, L2HeavyHitters
//	ScalarQuerier      Estimate() float64        L1Estimator, L0Estimator, InnerProduct
//	SetQuerier         Members() []uint64        HeavyHitters, L2HeavyHitters, SupportSampler
//	SampleQuerier      Sample() (Sample, bool)   L1Sampler
//	Prober             Contains(i) bool          SupportSampler
//
// (The authoritative table is the compile-time assert block in
// querier.go, next to the _ Sketch = ... block.)
//
// Batched reads run the same plan → hash → apply shape as batched
// writes, with "apply" replaced by "gather": EstimateBatch hashes the
// WHOLE index set in one batch evaluation per sketch row, gathers the
// per-row estimates in row-major table sweeps (each table row's reads
// happen while that row is cache-resident), and selects the per-index
// medians at the end — one hash pass for the whole index set instead
// of one per index, bit-identical to per-index Estimate. The two-tier
// split mirrors UpdateBatch/UpdateColumns:
//
//	ests := hh.EstimateBatch(idxs)       // convenience: one call, pooled scratch
//
//	b := bounded.GetBatch()              // explicit: plan once, query repeatedly
//	b.LoadKeys(idxs)
//	out := make([]float64, b.Len())
//	hh.EstimateColumns(b, out)           // reuses b's hash-column scratch
//	bounded.PutBatch(b)
//
// Queries share per-structure scratch with updates (that is where the
// zero allocations come from), so a structure is single-goroutine for
// queries AND updates — shard across instances, or query through the
// engine, for parallel readers.
//
// Query methods on a zero-value structure (never constructed, or left
// untouched by a failed UnmarshalBinary) panic with a diagnostic that
// names the structure and the fix ("construct with NewX or restore
// with UnmarshalBinary first") instead of nil-panicking deep inside an
// internal package.
//
// # Concurrency and the sharded ingest engine
//
// Each structure is single-goroutine: updates AND queries reuse
// per-structure scratch buffers (that reuse is where the zero
// allocations come from), so neither concurrent updates nor concurrent
// queries on one structure are safe.
//
// For parallel ingest, use the repro/engine package instead of locking
// a structure: engine.New(cfg, engine.Options{Shards: S}) owns S
// single-writer shards (one goroutine each, fed through bounded batch
// channels whose blocking IS the backpressure), hash-partitions every
// ingested batch across them with the library's fast-range hash, and
// answers queries from merged snapshots. That design leans on the
// mergeability layer in this package: every structure exposes the
// Sketch interface's
//
//	Merge(other Sketch) error  // fold a same-Config instance in; counters add
//	Clone() Sketch             // deep snapshot, safe to merge/query elsewhere
//
// because all of the paper's sketches are linear (or monotone) in their
// input stream — Count-Sketch/CSSS tables add coordinate-wise (CSSS
// aligns sampling rates by extra halvings first), subsampling bins add
// modulo the shared prime, candidate trackers re-rank the union under
// merged estimates, and InnerProduct's f- and g-sketches each add
// coordinate-wise. Merge requires both instances to come from the SAME
// Config (seed included) and reports a descriptive error otherwise; in
// the sketches' exact regimes a merged snapshot is bit-identical to a
// single-writer structure fed the concatenated stream, which the
// engine's differential tests assert. One caveat: InnerProduct
// sketches TWO streams, so the engine's single-partition Ingest does
// not feed it — merge InnerProduct instances directly (each site calls
// UpdateF/UpdateG) rather than through engine shards.
//
// The engine's Ingest is itself columnar: one batch hash evaluation
// computes every update's shard, indices and deltas scatter into
// per-shard column batches, and each shard goroutine receives
// ready-to-apply columns. Routed queries bypass snapshots entirely:
// Engine.Estimate routes to the index's OWNING shard (the partition
// hash sends every update for an index to one shard) and runs on the
// caller's goroutine under that shard's lock, after applying the
// shard's pending run inline — no engine lock held while it waits, no
// all-shard flush barrier, no wake-up of the shard goroutine, no
// merged-view rebuild
// (Stats().SnapshotBuilds counts rebuilds; routed queries never move
// it). Engine.EstimateBatch is the batched form and the read-side
// mirror of Ingest: one hash evaluation computes every queried index's
// owning shard, the index set scatters by column, each involved shard
// answers its column under its lock with the structures' batched
// readers, and the results reassemble in input order — bit-identical
// to per-index Estimate, and >= 2x cheaper per index at batch >= 256
// on a quiet engine because the per-query routing and locking
// amortize across the batch.
// Engine.Probe(i) routes a support membership probe the same way, and
// Engine.Support unions the shards' live recoveries (partition
// completeness makes them disjoint) without a single clone or merge;
// Support and Engine.ProbeBatch decode in the shard goroutines, all
// shards concurrently, because a sampler decode costs milliseconds.
// Global queries (HeavyHitters, L1, ...) still answer from the merged
// snapshot, behind a generation-tagged cache that is checked before
// the engine mutex, so query bursts do not stall producers.
//
// Pick the engine when ingest throughput is the bottleneck and cores
// are available (producers can be many goroutines; Ingest is
// concurrency-safe); pick a direct structure when one goroutine keeps
// up — global engine queries pay S snapshots plus S-1 merges per
// refresh, a direct structure answers from live state.
// examples/shardedingest walks the full pattern end to end.
//
// Invalid configurations no longer clamp silently: Config.Validate
// rejects N < 2, N > 2^44, Eps outside (0,1) and Alpha < 1, and every
// constructor — engine.New included — returns that error.
//
// # Observability
//
// The repro/internal/obs package is a zero-dependency, allocation-free
// metrics core (cache-line-padded atomic counters, log2-bucketed
// lock-free latency histograms, gauges) threaded through the engine,
// the shard workers, the columnar batch arena, and the kernel
// dispatcher. Engine.Stats() returns an exact point-in-time snapshot —
// ingest calls/keys/batches with latency, query counts and latency by
// path (point / batched / merged), snapshot rebuilds, flush and close
// timings, and per-shard applied work, busy time, send stalls and
// queue depth. After a Flush the identities are exact: batches applied
// sum to batches sent, keys applied sum to keys ingested.
// Engine.ExposeMetrics mounts those series on an obs.Registry, and
// obs.Handler() serves every registered metric as Prometheus text or
// JSON (?format=json); examples/netmon -listen is the live demo.
// Shard goroutines carry pprof labels (shard=N) and merged-view
// rebuilds emit runtime/trace task/regions (engine.snapshotBuild,
// engine.cloneShards, engine.mergeShards, shard.apply) when tracing is
// enabled. Building with -tags noobs compiles the whole layer out
// (zero-size counters, no-op recording; Stats reads zero except Shards
// and SnapshotBuilds, which stays exact in every flavor); BENCH_6.json
// records the enabled build at parity with the noobs build on the
// Fig1 ingest paths, and CI enforces a <2% overhead budget.
//
// # Networked aggregation
//
// The repro/internal/netagg package and the cmd/bdagent + cmd/bdaggd
// binaries run the paper's distributed monitoring scenario as a real
// service: site Agents ingest their local substream through the
// sharded engine and periodically ship engine-merged snapshots — as
// framed repro/internal/netproto messages over TCP — to an Aggregator
// that holds every agent's latest state, merges it into a cached
// global view, and answers Client queries for the union stream.
//
//	site stream ─▶ Agent[engine] ──SNAPSHOT/ACK──▶ ┐
//	site stream ─▶ Agent[engine] ──SNAPSHOT/ACK──▶ ├─ Aggregator ──ANSWER──▶ Client
//	site stream ─▶ Agent[engine] ──SNAPSHOT/ACK──▶ ┘
//
// The protocol is HELLO/WELCOME (version negotiation plus an exact
// Config-echo admission gate — same seed or the sketches are not
// mergeable), SNAPSHOT/ACK (full engine-merged state per enabled
// structure), and QUERY/ANSWER (point estimates, heavy hitters, L1,
// support). Sync is generation-gated: an idle agent whose engine
// Generation has not moved since the last ACK ships nothing at all.
// Because snapshots carry full state, a resend after a lost ACK or a
// reconnect REPLACES the agent's prior contribution rather than
// double-counting, and the aggregator commits each snapshot
// atomically (every blob decodes or none applies). In the sketches'
// exact regimes the aggregator's answers are bit-identical to one
// engine fed every site's stream — asserted over real loopback
// sockets, mid-run reconnect included, by internal/netagg's
// differential test. examples/distributedmerge is the one-shot,
// pipe-based precursor showing the same frames without the lifecycle.
//
// See DESIGN.md for the system inventory and the laptop-scale parameter
// substitutions, and EXPERIMENTS.md for measured results per table and
// figure.
package bounded
