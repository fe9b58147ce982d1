package main

import (
	"bytes"
	"encoding/json"
)

// metricDef is one catalog entry: what BENCHMARK.json declares and what
// every run prints. Bound is set only on end-to-end metrics.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Every workload reports every end-to-end metric, so each one is defined
// over the workload's closed-loop round and its headline call (see
// workloads); round percentiles and the workload-specific step timings are
// printed by name in the run report. Round latency's tail is not here: on
// a shared two-vCPU virtual machine it spread by half its median between
// runs. Every bound is the largest allowed, since even medians drift by
// 10-30% between runs minutes apart there.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"keys_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p95_us", "us", "lower", 0.25},
}

// Per-layer metrics come from the traced run. Times of layers a workload's
// own loop bypasses come from probes on that workload's state, so every
// workload reports every name (see README.md for the map).
var perLayer = []metricDef{
	// engine
	{"engine.ingest_call_ns_per_key", "ns", "lower", 0},
	{"engine.ingest_residual_ns_per_key", "ns", "lower", 0},
	{"engine.flush_ms", "ms", "lower", 0},
	{"engine.read_handoffs_per_round", "count", "lower", 0},
	{"engine.snapshot_builds", "count", "lower", 0},
	{"engine.merged_view_ms", "ms", "lower", 0},
	{"engine.snapshot_marshal_ms", "ms", "lower", 0},
	{"engine.snapshot_partitioned_ms", "ms", "lower", 0},
	{"engine.restore_checkpoint_ms", "ms", "lower", 0},
	{"engine.new_ms", "ms", "lower", 0},
	// internal/shard
	{"shard.busy_share", "share", "lower", 0},
	{"shard.apply_ns_per_key", "ns", "lower", 0},
	{"shard.send_stalls_per_mkeys", "count", "lower", 0},
	{"shard.key_balance", "ratio", "lower", 0},
	// internal/hash
	{"hash.partition_ns_per_key", "ns", "lower", 0},
	{"hash.vector_share.bucket_signs", "share", "higher", 0},
	{"hash.vector_share.field", "share", "higher", 0},
	{"hash.vector_share.range", "share", "higher", 0},
	{"hash.vector_share.gather", "share", "higher", 0},
	{"hash.vector_share.median", "share", "higher", 0},
	{"hash.cutover.bucket_signs", "count", "lower", 0},
	{"hash.cutover.field", "count", "lower", 0},
	{"hash.cutover.range", "count", "lower", 0},
	{"hash.cutover.gather", "count", "lower", 0},
	{"hash.cutover.median", "count", "lower", 0},
	// internal/core
	{"core.arena_miss_share", "share", "lower", 0},
	// root package structures
	{"apply.hh_ns_per_key", "ns", "lower", 0},
	{"apply.l1_ns_per_key", "ns", "lower", 0},
	{"apply.support_ns_per_key", "ns", "lower", 0},
	{"apply.hh_allocs_per_key", "count", "lower", 0},
	{"apply.l1_allocs_per_key", "count", "lower", 0},
	{"apply.support_allocs_per_key", "count", "lower", 0},
	{"query.hh_estimate_ns", "ns", "lower", 0},
	{"query.hh_estimate_batch_ns_per_key", "ns", "lower", 0},
	{"marshal.hh_us", "us", "lower", 0},
	{"marshal.l1_us", "us", "lower", 0},
	{"marshal.support_us", "us", "lower", 0},
	{"decode.hh_us", "us", "lower", 0},
	{"decode.l1_us", "us", "lower", 0},
	{"decode.support_us", "us", "lower", 0},
	// internal/wire
	{"wire.part_unmarshal_ms", "ms", "lower", 0},
	{"wire.part_snapshot_bytes", "B", "lower", 0},
	// internal/netproto
	{"netproto.encode_us", "us", "lower", 0},
	{"netproto.decode_us", "us", "lower", 0},
	{"netproto.frame_bytes", "B", "lower", 0},
	// internal/netagg
	{"netagg.sync_ms", "ms", "lower", 0},
	{"netagg.sync_residual_ms", "ms", "lower", 0},
	{"netagg.sync_alloc_bytes", "B", "lower", 0},
	{"netagg.bytes_per_snapshot", "B", "lower", 0},
	{"netagg.view_builds_per_query", "count", "lower", 0},
	// internal/ckpt
	{"ckpt.save_ms", "ms", "lower", 0},
	{"ckpt.load_ms", "ms", "lower", 0},
	{"ckpt.bytes_per_save", "B", "lower", 0},
	{"ckpt.save_residual_ms", "ms", "lower", 0},
	{"ckpt.open_residual_ms", "ms", "lower", 0},
	// Go runtime, over the traced loop
	{"go.alloc_bytes_per_key", "B", "lower", 0},
	{"go.allocs_per_key", "count", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"go.heap_peak_mb", "MB", "lower", 0},
	// ledger closure
	{"ledger.coverage", "share", "higher", 0},
	{"ledger.round_residual_share", "share", "lower", 0},
	{"ledger.op_residual_share", "share", "lower", 0},
	{"ledger.round_samples", "count", "higher", 0},
	{"ledger.op_samples", "count", "higher", 0},
	// traced minus untraced, as a share of untraced
	{"trace_overhead.setup_s", "share", "lower", 0},
	{"trace_overhead.keys_per_s", "share", "lower", 0},
	{"trace_overhead.op_p50_us", "share", "lower", 0},
	{"trace_overhead.op_p95_us", "share", "lower", 0},
}

// runSeconds is BENCHMARK.json's run_seconds.
const runSeconds = 30

// manifest renders BENCHMARK.json from the catalog, so the file and the
// program cannot drift apart (manifest_test.go compares them).
func manifest() ([]byte, error) {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "ledgerbench/run.sh"},
		Paths:      []string{"ledgerbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDef{w.name, w.why})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
