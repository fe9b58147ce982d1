package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	bounded "repro"
	"repro/engine"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hash"
)

// cfg is the Config every workload runs: the paper's Figure 1 parameters.
// Its seed is part of the system under test, not of the inputs, and stays
// fixed: it picks the partition hash, and with it which shard owns the
// stream's heaviest keys, which would otherwise move throughput by a
// third from one input seed to the next.
var cfg = bounded.Config{N: 1 << 16, Eps: 0.05, Alpha: 8, Seed: 42}

// keySetSize is the read set of read-mix (and the checkpoint oracle).
const keySetSize = 256

// inputs are generated from the seed before anything is timed.
type inputs struct {
	cfg     bounded.Config
	updates []bounded.Update // the Figure 1 stream, replayed
	keys    []uint64         // keySetSize distinct stream keys
}

func makeInputs(seed int64) inputs {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 16, Items: 60000, Alpha: 8, Zipf: 1.5, Seed: seed})
	seen := map[uint64]bool{}
	var distinct []uint64
	for _, u := range s.Updates {
		if !seen[u.Index] {
			seen[u.Index] = true
			distinct = append(distinct, u.Index)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	return inputs{cfg: cfg, updates: s.Updates, keys: distinct[:keySetSize]}
}

// chunks splits one pass of the stream into n-update batches.
func chunks(ups []bounded.Update, n int) [][]bounded.Update {
	var out [][]bounded.Update
	for off := 0; off < len(ups); off += n {
		out = append(out, ups[off:min(off+n, len(ups))])
	}
	return out
}

// cycler hands out consecutive n-update batches of the stream, wrapping
// around at the end; replaying keeps the alpha-property.
type cycler struct {
	ups []bounded.Update
	off int
	buf []bounded.Update
}

func (c *cycler) next(n int) []bounded.Update {
	if c.off+n <= len(c.ups) {
		b := c.ups[c.off : c.off+n]
		c.off += n
		return b
	}
	c.buf = append(c.buf[:0], c.ups[c.off:]...)
	c.off = n - len(c.buf)
	return append(c.buf, c.ups[:c.off]...)
}

// env is what a workload run gets: its inputs, how long to measure, a
// scratch directory inside the checkout, and the tracer.
type env struct {
	in     inputs
	dur    time.Duration
	dir    string
	tr     *tracer
	shards int
	log    io.Writer
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 21

// timedSetup runs one set-up of the workload and records its time.
func timedSetup[T any](o *outcome, setUp func() (T, error)) (T, error) {
	t0 := time.Now()
	v, err := setUp()
	o.setup = append(o.setup, time.Since(t0).Seconds())
	return v, err
}

// setupRep returns a function that times one more set-up of the workload
// and tears it down; loop spreads these repetitions over the run.
func setupRep[T any](o *outcome, setUp func() (T, error), tearDown func(T) error) func() error {
	return func() error {
		v, err := timedSetup(o, setUp)
		if err != nil {
			return err
		}
		return tearDown(v)
	}
}

// outcome is what one workload run measured.
type outcome struct {
	setup     []float64 // seconds per set-up repetition
	round, op series
	keys      int64 // keys passed to the client's calls inside rounds
	roundNs   int64 // summed round latency
	loopWall  time.Duration
	attempted int
	failed    int
	checks    int
	steps     []*step
	notes     []note
	layers    map[string]float64 // traced runs only
	log       io.Writer
}

// step is one workload call whose latency the report prints under its own
// name, e.g. point_read_p50_us.
type step struct {
	name string
	unit time.Duration // time.Microsecond or time.Millisecond
	qs   []float64
	s    series
}

func (o *outcome) step(name string, unit time.Duration, qs ...float64) *step {
	s := &step{name: name, unit: unit, qs: qs}
	o.steps = append(o.steps, s)
	return s
}

// note is a derived figure the report prints by name.
type note struct {
	name, unit string
	value      float64
}

func (o *outcome) note(name string, value float64, unit string) {
	o.notes = append(o.notes, note{name: name, unit: unit, value: value})
}

// opResidual records the share of the headline call's median that the
// probed parts (partsNs, in ns) leave unattributed.
func (o *outcome) opResidual(partsNs float64) {
	p50 := quantile(o.op.ns, 0.5)
	o.layers["ledger.op_residual_share"] = ratio(p50-partsNs, p50)
}

// call counts one public call and its error.
func (o *outcome) call(err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		if o.failed <= 5 {
			fmt.Fprintf(o.log, "error: %v\n", err)
		}
		return false
	}
	return true
}

// check records one oracle comparison; a mismatch counts as a failed
// operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.checks++
	if !ok {
		o.failed++
		if o.failed <= 5 {
			fmt.Fprintf(o.log, "oracle: "+format+"\n", args...)
		}
	}
}

// endRound records one closed-loop round.
func (o *outcome) endRound(d time.Duration, keys int) {
	o.round.add(d)
	o.roundNs += int64(d)
	o.keys += int64(keys)
}

// engineTally sums engine counters over a measured loop (possibly over
// several engines).
type engineTally struct {
	busy, applied, stalls, sent, builds, ingested int64
	perShard                                      []int64
}

func (t *engineTally) add(before, after engine.Stats) {
	if t.perShard == nil {
		t.perShard = make([]int64, len(after.PerShard))
	}
	for i, s := range after.PerShard {
		var b engine.ShardStats
		if i < len(before.PerShard) {
			b = before.PerShard[i]
		}
		t.busy += s.BusyNanos - b.BusyNanos
		t.applied += s.KeysApplied - b.KeysApplied
		t.stalls += s.SendStalls - b.SendStalls
		t.perShard[i] += s.KeysApplied - b.KeysApplied
	}
	t.sent += after.BatchesSent - before.BatchesSent
	t.builds += after.SnapshotBuilds - before.SnapshotBuilds
	t.ingested += after.IngestedKeys - before.IngestedKeys
}

// processCounters are the process-wide counters read around a loop.
type processCounters struct {
	mem      runtime.MemStats
	dispatch hash.DispatchStats
	arena    core.BatchArenaStats
}

func readProcess() processCounters {
	var p processCounters
	runtime.ReadMemStats(&p.mem)
	p.dispatch = hash.KernelDispatchStats()
	p.arena = core.ArenaStats()
	return p
}

// loopLayers fills the per-layer metrics a traced loop measures directly:
// the shard, hash-dispatch, arena and Go-runtime counters, and the ledger
// closure over the tracer's spans. ingestSpan names the span wrapping the
// workload's ingest call.
func loopLayers(o *outcome, tr *tracer, t *engineTally, before, after processCounters, shards int, ingestSpan string) {
	L := o.layers
	wall := float64(o.loopWall)
	L["shard.busy_share"] = ratio(float64(t.busy), float64(shards)*wall)
	L["shard.apply_ns_per_key"] = ratio(float64(t.busy), float64(t.applied))
	L["shard.send_stalls_per_mkeys"] = ratio(float64(t.stalls)*1e6, float64(t.applied))
	var maxKeys int64
	for _, k := range t.perShard {
		maxKeys = max(maxKeys, k)
	}
	L["shard.key_balance"] = ratio(float64(maxKeys)*float64(len(t.perShard)), float64(t.applied))
	L["engine.read_handoffs_per_round"] = ratio(float64(t.sent), float64(len(o.round.ns)))
	L["engine.snapshot_builds"] = float64(t.builds)
	L["engine.ingest_call_ns_per_key"] = ratio(float64(tr.stat(ingestSpan).total), float64(t.ingested))

	d0, d1 := before.dispatch, after.dispatch
	share := func(s0, v0, s1, v1 int64) float64 {
		return ratio(float64(v1-v0), float64(s1-s0+v1-v0))
	}
	L["hash.vector_share.bucket_signs"] = share(d0.BucketSignsScalar, d0.BucketSignsVector, d1.BucketSignsScalar, d1.BucketSignsVector)
	L["hash.vector_share.field"] = share(d0.FieldScalar, d0.FieldVector, d1.FieldScalar, d1.FieldVector)
	L["hash.vector_share.range"] = share(d0.RangeScalar, d0.RangeVector, d1.RangeScalar, d1.RangeVector)
	L["hash.vector_share.gather"] = share(d0.GatherScalar, d0.GatherVector, d1.GatherScalar, d1.GatherVector)
	L["hash.vector_share.median"] = share(d0.MedianScalar, d0.MedianVector, d1.MedianScalar, d1.MedianVector)
	for fam, n := range hash.KernelCutovers() {
		L["hash.cutover."+fam] = float64(n)
	}
	L["core.arena_miss_share"] = ratio(float64(after.arena.Misses-before.arena.Misses), float64(after.arena.Gets-before.arena.Gets))

	keys := float64(o.keys)
	m0, m1 := before.mem, after.mem
	L["go.alloc_bytes_per_key"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), keys)
	L["go.allocs_per_key"] = ratio(float64(m1.Mallocs-m0.Mallocs), keys)
	L["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	L["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	L["go.heap_peak_mb"] = float64(tr.heapPeak) / (1 << 20)

	round := tr.stat("round")
	L["ledger.coverage"] = ratio(float64(tr.topTotal), wall)
	L["ledger.round_residual_share"] = ratio(float64(round.self), float64(round.total))
	L["ledger.round_samples"] = float64(len(o.round.ns))
	L["ledger.op_samples"] = float64(len(o.op.ns))
}
