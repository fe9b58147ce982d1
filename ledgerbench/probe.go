package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	bounded "repro"
	"repro/engine"
	"repro/internal/ckpt"
	"repro/internal/hash"
	"repro/internal/netagg"
	"repro/internal/netproto"
	"repro/internal/wire"
)

// probeReps is how often each probe call repeats; probes report medians.
const probeReps = 7

// netaggFacts are the netagg layer's figures. durable-site measures them
// in its own rounds; the other workloads get them from a loopback probe.
type netaggFacts struct {
	syncNs             float64 // median Agent.Sync
	allocBytes         float64 // median bytes allocated process-wide per Sync
	bytesPerSnapshot   float64
	viewBuildsPerQuery float64
}

// timeIt returns the median duration of probeReps calls of f, in ns.
func timeIt(f func() error) (float64, error) {
	ds, err := timeInTurn(f)
	if err != nil {
		return 0, err
	}
	return median(ds[0]), nil
}

type columnsUpdater interface{ UpdateColumns(*bounded.Batch) }

// applyPass feeds one pre-planned pass to a standalone structure and
// returns ns and allocations per key; planning is not timed.
func applyPass(sk columnsUpdater, batches [][]bounded.Update) (ns, allocs float64) {
	planned := make([]*bounded.Batch, len(batches))
	keys := 0
	for i, b := range batches {
		planned[i] = bounded.PlanBatch(b)
		keys += len(b)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, b := range planned {
		sk.UpdateColumns(b)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	for _, b := range planned {
		bounded.PutBatch(b)
	}
	return float64(d) / float64(keys), float64(m1.Mallocs-m0.Mallocs) / float64(keys)
}

// siteStructures is the structure set of durable-site, the daemons and
// the durability benches.
const siteStructures = engine.HeavyHitters | engine.L1Estimator | engine.SupportSampler

// probeLayers adds to L, which holds the loop's own figures, the times
// of each layer's public calls on the workload's inputs: standalone
// single-writer structures fed the workload's batches of size batch
// (shadow calls), and the maintenance, wire, framing, checkpoint and sync
// calls of the durable-site path on a site engine eng, which it mutates.
// A nil eng probes a fresh site engine loaded with one pass of the
// stream. na carries durable-site's own netagg figures; nil runs the
// loopback probe.
func probeLayers(e *env, L map[string]float64, eng *engine.Engine, batch int, na *netaggFacts) error {
	cfg := e.in.cfg
	if eng == nil {
		var err error
		if eng, err = engine.New(cfg, engine.Options{Shards: e.shards, Structures: siteStructures}); err != nil {
			return err
		}
		defer eng.Close()
		for _, b := range chunks(e.in.updates, siteBatch) {
			if err := eng.Ingest(b); err != nil {
				return err
			}
		}
		if err := eng.Flush(); err != nil {
			return err
		}
	}
	batches := chunks(e.in.updates, batch)
	keys := e.in.keys

	// Structures, as single writers.
	hh, err := bounded.NewHeavyHitters(cfg)
	if err != nil {
		return err
	}
	l1, err := bounded.NewL1Estimator(cfg)
	if err != nil {
		return err
	}
	sup, err := bounded.NewSupportSampler(cfg, bounded.WithK(32))
	if err != nil {
		return err
	}
	structs := []struct {
		name string
		sk   interface {
			columnsUpdater
			MarshalBinary() ([]byte, error)
		}
	}{{"hh", hh}, {"l1", l1}, {"support", sup}}
	decodeNs := map[string]float64{}
	for _, s := range structs {
		L["apply."+s.name+"_ns_per_key"], L["apply."+s.name+"_allocs_per_key"] = applyPass(s.sk, batches)
		var blob []byte
		ns, err := timeIt(func() (err error) { blob, err = s.sk.MarshalBinary(); return err })
		if err != nil {
			return err
		}
		L["marshal."+s.name+"_us"] = ns / 1e3
		ns, err = timeIt(func() error { _, err := bounded.UnmarshalSketch(blob); return err })
		if err != nil {
			return err
		}
		decodeNs[s.name] = ns
		L["decode."+s.name+"_us"] = ns / 1e3
	}
	ns, _ := timeIt(func() error {
		for _, k := range keys {
			hh.Estimate(k)
		}
		return nil
	})
	L["query.hh_estimate_ns"] = ns / float64(len(keys))
	ns, _ = timeIt(func() error { hh.EstimateBatch(keys); return nil })
	L["query.hh_estimate_batch_ns_per_key"] = ns / float64(len(keys))

	// Partition hash over the workload's key columns.
	part := hash.NewPairwise(rand.New(rand.NewSource(cfg.Seed)))
	cols := make([][]uint64, len(batches))
	for i, b := range batches {
		cols[i] = make([]uint64, len(b))
		for j, u := range b {
			cols[i][j] = u.Index
		}
	}
	out := make([]uint64, batch)
	ns, _ = timeIt(func() error {
		for _, c := range cols {
			part.RangeBatch(c, uint64(e.shards), out[:len(c)])
		}
		return nil
	})
	L["hash.partition_ns_per_key"] = ns / float64(len(e.in.updates))
	L["engine.ingest_residual_ns_per_key"] = L["engine.ingest_call_ns_per_key"] - L["hash.partition_ns_per_key"]

	// Engine maintenance calls.
	cyc := &cycler{ups: e.in.updates}
	ds, err := timeInTurn(func() error { return eng.Ingest(cyc.next(siteBatch)) }, eng.Flush)
	if err != nil {
		return err
	}
	L["engine.flush_ms"] = median(ds[1]) / 1e6
	bits := structureBits(eng.Structures())
	var coldNs, warmHH, warmAll []float64
	for i := 0; i < probeReps; i++ {
		if err := eng.Ingest(cyc.next(siteBatch)); err != nil {
			return err
		}
		if err := eng.Flush(); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := eng.Snapshot(engine.HeavyHitters); err != nil {
			return err
		}
		coldNs = append(coldNs, float64(time.Since(t0)))
		var all time.Duration
		for _, bit := range bits {
			t0 := time.Now()
			if _, err := eng.Snapshot(bit); err != nil {
				return err
			}
			d := time.Since(t0)
			all += d
			if bit == engine.HeavyHitters {
				warmHH = append(warmHH, float64(d))
			}
		}
		warmAll = append(warmAll, float64(all))
	}
	L["engine.merged_view_ms"] = median(coldNs) / 1e6
	L["engine.snapshot_marshal_ms"] = median(warmAll) / 1e6
	viewBuildNs := median(coldNs) - median(warmHH)

	partBytes, err := eng.SnapshotPartitioned()
	if err != nil {
		return err
	}
	L["wire.part_snapshot_bytes"] = float64(len(partBytes))
	ns, err = timeIt(func() error { return new(wire.PartSnapshot).UnmarshalBinary(partBytes) })
	if err != nil {
		return err
	}
	L["wire.part_unmarshal_ms"] = ns / 1e6
	opts := engine.Options{Shards: e.shards, Structures: eng.Structures()}
	var fresh *engine.Engine
	ds, err = timeInTurn(
		func() (err error) { fresh, err = engine.New(cfg, opts); return err },
		func() error { return fresh.Close() },
	)
	if err != nil {
		return err
	}
	L["engine.new_ms"] = median(ds[0]) / 1e6

	// Checkpoint save and open, and the calls they are made of, timed in
	// turn within each repetition so that all of them meet the same disk
	// and host; each residual is the median of its repetitions' own
	// differences. Closing the reopened engines is not timed.
	dir := filepath.Join(e.dir, "probe-ckpt")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := ckpt.Open(dir, ckpt.Options{})
	if err != nil {
		return err
	}
	var reopened *engine.Engine
	ds, err = timeInTurn(
		func() error { _, err := eng.SnapshotPartitioned(); return err },
		func() error { _, err := store.Save(partBytes); return err },
		func() error { _, err := eng.CheckpointTo(store); return err },
		func() error { _, _, err := store.Load(); return err },
		func() (err error) { reopened, err = engine.RestoreCheckpoint(partBytes, engine.Options{}); return err },
		func() error { return reopened.Close() },
		func() (err error) { reopened, err = engine.OpenCheckpoint(dir, engine.Options{}); return err },
		func() error { return reopened.Close() },
	)
	if err != nil {
		return err
	}
	snap, save, saveTo, load, restore, open := ds[0], ds[1], ds[2], ds[3], ds[4], ds[6]
	saveRes, openRes := make([]float64, probeReps), make([]float64, probeReps)
	for i := range saveRes {
		saveRes[i] = saveTo[i] - snap[i] - save[i]
		openRes[i] = open[i] - load[i] - restore[i]
	}
	st := store.Stats()
	L["engine.snapshot_partitioned_ms"] = median(snap) / 1e6
	L["engine.restore_checkpoint_ms"] = median(restore) / 1e6
	L["ckpt.save_ms"], L["ckpt.load_ms"] = median(save)/1e6, median(load)/1e6
	L["ckpt.bytes_per_save"] = ratio(float64(st.BytesWritten), float64(st.Saves))
	L["ckpt.save_residual_ms"] = median(saveRes) / 1e6
	L["ckpt.open_residual_ms"] = median(openRes) / 1e6

	// Framing: the SNAPSHOT message a sync of this engine would send.
	msg := &netproto.Snapshot{Seq: 1, Gen: eng.Generation()}
	for _, bit := range bits {
		b, err := eng.Snapshot(bit)
		if err != nil {
			return err
		}
		msg.Sketches = append(msg.Sketches, netproto.SketchBlob{StructureBit: uint32(bit), Payload: b})
	}
	var frame []byte
	ns, _ = timeIt(func() error { frame = netproto.Encode(msg); return nil })
	L["netproto.encode_us"] = ns / 1e3
	L["netproto.frame_bytes"] = float64(len(frame))
	ns, err = timeIt(func() error { _, err := netproto.Decode(frame); return err })
	if err != nil {
		return err
	}
	L["netproto.decode_us"] = ns / 1e3

	if na == nil {
		if na, err = probeSync(e); err != nil {
			return err
		}
	}
	L["netagg.sync_ms"] = na.syncNs / 1e6
	L["netagg.sync_alloc_bytes"] = na.allocBytes
	L["netagg.bytes_per_snapshot"] = na.bytesPerSnapshot
	L["netagg.view_builds_per_query"] = na.viewBuildsPerQuery
	parts := viewBuildNs + L["engine.snapshot_marshal_ms"]*1e6 + (L["netproto.encode_us"]+L["netproto.decode_us"])*1e3
	for _, bit := range bits {
		parts += decodeNs[bitName(bit)]
	}
	L["netagg.sync_residual_ms"] = (na.syncNs - parts) / 1e6
	return nil
}

// timeInTurn runs the steps one after another, probeReps times, and
// returns each step's durations in ns.
func timeInTurn(steps ...func() error) ([][]float64, error) {
	ds := make([][]float64, len(steps))
	for i := 0; i < probeReps; i++ {
		for j, f := range steps {
			t0 := time.Now()
			if err := f(); err != nil {
				return nil, err
			}
			ds[j] = append(ds[j], float64(time.Since(t0)))
		}
	}
	return ds, nil
}

// structureBits lists the single-structure bits of a set, ascending —
// the order Agent.Sync snapshots them in.
func structureBits(s engine.Structures) []engine.Structures {
	var bits []engine.Structures
	for bit := engine.Structures(1); bit != 0 && bit <= s; bit <<= 1 {
		if s&bit != 0 {
			bits = append(bits, bit)
		}
	}
	return bits
}

func bitName(bit engine.Structures) string {
	switch bit {
	case engine.HeavyHitters:
		return "hh"
	case engine.L1Estimator:
		return "l1"
	case engine.SupportSampler:
		return "support"
	}
	return fmt.Sprintf("bit%#x", uint32(bit))
}

// allocBytes reads the process's cumulative heap allocation without
// stopping the world.
func allocBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func allocSample() []metrics.Sample {
	return []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
}

// probeSync runs a site agent against an in-process aggregator over
// loopback, loads it with one pass of the stream, and times syncs that
// each follow one more durable-site batch, as durable-site's rounds do.
func probeSync(e *env) (*netaggFacts, error) {
	s, err := openSite(e, siteStructures, "probe-site")
	if err != nil {
		return nil, err
	}
	defer s.close()
	for _, b := range chunks(e.in.updates, siteBatch) {
		if err := s.agent.Ingest(b); err != nil {
			return nil, err
		}
	}
	a0, g0 := s.agent.Stats(), s.agg.Stats()
	sample := allocSample()
	var syncs, allocs []float64
	cyc := &cycler{ups: e.in.updates}
	for i := 0; i < probeReps; i++ {
		if err := s.agent.Ingest(cyc.next(siteBatch)); err != nil {
			return nil, err
		}
		if err := s.agent.Engine().Flush(); err != nil {
			return nil, err
		}
		b0 := allocBytes(sample)
		t0 := time.Now()
		if err := s.agent.Sync(context.Background()); err != nil {
			return nil, err
		}
		syncs = append(syncs, float64(time.Since(t0)))
		allocs = append(allocs, float64(allocBytes(sample)-b0))
		if _, err := s.client.Estimate(e.in.keys[:remoteKeys]); err != nil {
			return nil, err
		}
	}
	a1, g1 := s.agent.Stats(), s.agg.Stats()
	return &netaggFacts{
		syncNs:             median(syncs),
		allocBytes:         median(allocs),
		bytesPerSnapshot:   ratio(float64(a1.BytesOut-a0.BytesOut), float64(a1.SnapshotsSent-a0.SnapshotsSent)),
		viewBuildsPerQuery: ratio(float64(g1.ViewBuilds-g0.ViewBuilds), float64(g1.QueriesServed-g0.QueriesServed)),
	}, nil
}

// site is one monitored site wired to its aggregator over loopback: the
// durable-site topology, also used by the sync probe.
type site struct {
	agg    *netagg.Aggregator
	served chan error
	agent  *netagg.Agent
	client *netagg.Client
	store  *ckpt.Store
	dir    string
}

// openSite starts an aggregator on a loopback port, an agent with the
// given structures and a query client, opens a checkpoint store under
// the scratch directory, and makes the first sync (dial + HELLO).
func openSite(e *env, structs engine.Structures, name string) (s *site, err error) {
	cfg := e.in.cfg
	s = &site{dir: filepath.Join(e.dir, name+"-ckpt")}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if err = os.RemoveAll(s.dir); err != nil {
		return s, err
	}
	if s.agg, err = netagg.NewAggregator(netagg.AggregatorOptions{Config: cfg, Structures: structs}); err != nil {
		return s, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.agg.Serve(ln) }()
	addr := ln.Addr().String()
	if s.agent, err = netagg.NewAgent(netagg.AgentOptions{
		ID: name, Aggregator: addr, Config: cfg,
		Engine: engine.Options{Shards: e.shards, Structures: structs},
	}); err != nil {
		return s, err
	}
	if s.client, err = netagg.DialClient(addr, netagg.ClientOptions{Config: cfg}); err != nil {
		return s, err
	}
	if s.store, err = ckpt.Open(s.dir, ckpt.Options{}); err != nil {
		return s, err
	}
	return s, s.agent.Sync(context.Background())
}

// close stops the site's client, agent and aggregator, waits for the
// aggregator's accept loop to return, and removes the checkpoint
// directory.
func (s *site) close() {
	if s.client != nil {
		s.client.Close()
	}
	if s.agent != nil {
		s.agent.Close()
	}
	if s.agg != nil {
		s.agg.Close()
		if s.served != nil {
			<-s.served
		}
	}
	os.RemoveAll(s.dir)
}
