package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	bounded "repro"
	"repro/engine"
)

// workload is one closed-loop client driving the library from a single
// goroutine. Each defines a round and a headline call, which the
// end-to-end metrics are measured over.
type workload struct {
	name string
	why  string
	run  func(*env) (*outcome, error)
}

// workloads are the ones BENCHMARK.json declares.
var workloads = []workload{
	{"fig1-ingest", "Figure 1 stream into a fresh heavy-hitters engine per round: plan, scatter, shard hand-off and HH apply; no reads, no wire, no disk", runFig1},
	{"read-mix", "routed point and batched reads beside 64-update writes on a preloaded engine, so 1 read in 8 pays a pending hand-off", runReadMix},
}

// manualWorkloads run by name but are not declared. durable-site writes a
// fsynced checkpoint of about 760 KB every round, some 25 MB/s, and on a
// shared two-vCPU virtual machine its runs slow down after two or three
// minutes of that: over six back-to-back ten-second runs, round throughput
// fell from 225k to 106k keys/s and the sync tail tripled, so its metrics
// spread beyond any bound BENCHMARK.json may set (ten seeds: round
// throughput 0.30-0.37, sync p95 0.82-1.08, as quartile distance over
// median). Its sync and checkpoint layers are still probed in every traced
// run of the declared workloads.
var manualWorkloads = []workload{
	{"durable-site", "agent ingest, drain, loopback sync to an aggregator, remote query, checkpoint to disk and reopen: the only path through wire, netagg and ckpt", runDurable},
}

const (
	fig1Chunk    = 2048 // fig1-ingest's Ingest call size
	mixWrite     = 64   // read-mix's Ingest call size per round
	mixPoints    = 16   // read-mix's Estimate calls per round
	mixFullCheck = 64   // read-mix re-checks the whole batch every this many rounds
	siteBatch    = 4096 // durable-site's Agent.Ingest call size
	remoteKeys   = 16   // durable-site's Client.Estimate key count
)

// loop runs round until the run's duration has passed, with the
// process-wide counters read around it. Between rounds it times the
// remaining set-ups with rep, one per setupReps-th of the run: on a shared
// host, set-ups timed back to back at one moment were up to twice as slow
// when the host was throttling the CPU just then. In a traced run it then
// calls settle, which completes the engine tally, and fills the loop's own
// per-layer figures.
func loop(e *env, o *outcome, tally *engineTally, ingestSpan string, round func(r int) error, settle func(), rep func() error) error {
	e.tr.resetLoop()
	p0 := readProcess()
	start := time.Now()
	// The calls inside a set-up are not the loop's: they stay out of the
	// spans, and one top-level span covers each set-up inside the loop. A
	// collection first clears the loop's garbage, so the set-up does not
	// pay for marking it.
	untracedRep := func() error {
		on := e.tr.on
		e.tr.on = false
		defer func() { e.tr.on = on }()
		runtime.GC()
		return rep()
	}
	gap := e.dur / setupReps
	next := start.Add(gap)
	for r := 0; time.Since(start) < e.dur; r++ {
		if err := round(r); err != nil {
			return err
		}
		if len(o.setup) < setupReps && time.Now().After(next) {
			m := e.tr.begin("setup")
			err := untracedRep()
			e.tr.end(m)
			if err != nil {
				return err
			}
			next = next.Add(gap)
		}
	}
	o.loopWall = time.Since(start)
	var p1 processCounters
	if e.tr.on {
		p1 = readProcess()
	}
	for len(o.setup) < setupReps {
		if err := untracedRep(); err != nil {
			return err
		}
	}
	if e.tr.on {
		if settle != nil {
			settle()
		}
		loopLayers(o, e.tr, tally, p0, p1, e.shards, ingestSpan)
	}
	return nil
}

// runFig1 replays the Figure 1 stream through Ingest in 2048-update
// chunks, then Flush, into a fresh heavy-hitters engine per round: a
// replayed stream would take one engine out of the exact regime the
// oracle relies on. Round = the chunks plus Flush; headline call =
// Ingest.
func runFig1(e *env) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}, log: e.log}
	in, tr := e.in, e.tr
	single, err := bounded.NewHeavyHitters(in.cfg)
	if err != nil {
		return nil, err
	}
	single.UpdateBatch(in.updates)
	want := sorted(single.HeavyHitters())
	opts := engine.Options{Shards: e.shards, Structures: engine.HeavyHitters}
	batches := chunks(in.updates, fig1Chunk)
	ingest := o.step("ingest_call", time.Microsecond, 0.5, 0.99)

	pass := func(eng *engine.Engine) error {
		for _, b := range batches {
			m := tr.begin("engine.ingest")
			err := eng.Ingest(b)
			d := tr.end(m)
			if !o.call(err) {
				return err
			}
			o.op.add(d)
			ingest.s.add(d)
		}
		m := tr.begin("engine.flush")
		err := eng.Flush()
		tr.end(m)
		o.call(err)
		return err
	}

	// Set-up: a cold engine and one warm-up round.
	setUp := func() (*engine.Engine, error) {
		eng, err := engine.New(in.cfg, opts)
		if err != nil {
			return nil, err
		}
		for _, b := range batches {
			if err := eng.Ingest(b); err != nil {
				return eng, err
			}
		}
		return eng, eng.Flush()
	}
	eng, err := timedSetup(o, setUp)
	if err != nil {
		return nil, err
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}

	var tally engineTally
	err = loop(e, o, &tally, "engine.ingest", func(int) error {
		m := tr.begin("engine.new")
		eng, err := engine.New(in.cfg, opts)
		tr.end(m)
		if !o.call(err) {
			return err
		}
		before := eng.Stats()
		r := tr.begin("round")
		err = pass(eng)
		d := tr.end(r)
		if err != nil {
			eng.Close()
			return err
		}
		o.endRound(d, len(in.updates))
		tally.add(before, eng.Stats())
		m = tr.begin("oracle")
		got, err := eng.HeavyHitters()
		o.check(err == nil && slices.Equal(sorted(got), want), "engine heavy hitters %v (%v), single writer %v", got, err, want)
		tr.end(m)
		m = tr.begin("engine.close")
		err = eng.Close()
		tr.end(m)
		o.call(err)
		return nil
	}, nil, setupRep(o, setUp, (*engine.Engine).Close))
	if err != nil {
		return o, err
	}
	o.note("ingest_mkeys_per_s", float64(o.keys)/float64(o.roundNs)*1e3, "Mkeys/s")
	if !tr.on {
		return o, nil
	}
	if err := probeLayers(e, o.layers, nil, fig1Chunk, nil); err != nil {
		return o, err
	}
	o.opResidual(o.layers["hash.partition_ns_per_key"] * fig1Chunk)
	return o, nil
}

// runReadMix preloads one engine with the stream, then runs rounds of
// Ingest(64), 16 x Estimate over a fixed 256-key set and one
// EstimateBatch of the set. Round = those 18 calls; headline call =
// Estimate. The 64 pending updates make the first read of each shard in a
// round hand them off, so p50 is a quiet read and p95 a read after write.
func runReadMix(e *env) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}, log: e.log}
	in, tr := e.in, e.tr
	opts := engine.Options{Shards: e.shards, Structures: engine.HeavyHitters}
	point := o.step("point_read", time.Microsecond, 0.5, 0.99)
	batchRead := o.step("batch_read", time.Microsecond, 0.5, 0.99)
	cyc := &cycler{ups: in.updates}
	vals := make([]float64, mixPoints)

	round := func(eng *engine.Engine, r int, record bool) error {
		rm := tr.begin("round")
		m := tr.begin("engine.ingest")
		err := eng.Ingest(cyc.next(mixWrite))
		tr.end(m)
		if !o.call(err) {
			return err
		}
		for j := range vals {
			m := tr.begin("engine.estimate")
			v, err := eng.Estimate(in.keys[(r*mixPoints+j)%len(in.keys)])
			d := tr.end(m)
			if !o.call(err) {
				return err
			}
			vals[j] = v
			if record {
				o.op.add(d)
				point.s.add(d)
			}
		}
		m = tr.begin("engine.estimate_batch")
		got, err := eng.EstimateBatch(in.keys)
		d := tr.end(m)
		if !o.call(err) {
			return err
		}
		rd := tr.end(rm)
		if !record {
			return nil
		}
		batchRead.s.add(d)
		o.endRound(rd, mixWrite+mixPoints+len(in.keys))
		// The batch must repeat this round's point reads bit for bit, and
		// every index's Estimate on sampled rounds.
		same := true
		for j, v := range vals {
			same = same && got[(r*mixPoints+j)%len(got)] == v
		}
		o.check(same, "round %d: EstimateBatch differs from the round's Estimate calls", r)
		if r%mixFullCheck == 0 {
			m := tr.begin("oracle")
			same := true
			for i, k := range in.keys {
				v, err := eng.Estimate(k)
				same = same && err == nil && v == got[i]
			}
			o.check(same, "round %d: per-index Estimate differs from EstimateBatch", r)
			tr.end(m)
		}
		return nil
	}

	// Set-up: engine, preload with one pass, one warm-up round.
	setUp := func() (*engine.Engine, error) {
		eng, err := engine.New(in.cfg, opts)
		if err != nil {
			return nil, err
		}
		for _, b := range chunks(in.updates, fig1Chunk) {
			if err := eng.Ingest(b); err != nil {
				return eng, err
			}
		}
		if err := eng.Flush(); err != nil {
			return eng, err
		}
		return eng, round(eng, 0, false)
	}
	eng, err := timedSetup(o, setUp)
	if eng != nil {
		defer eng.Close()
	}
	if err != nil {
		return nil, err
	}

	var tally engineTally
	before := eng.Stats()
	err = loop(e, o, &tally, "engine.ingest", func(r int) error {
		return round(eng, r, true)
	}, func() { tally.add(before, eng.Stats()) }, setupRep(o, setUp, (*engine.Engine).Close))
	if err != nil {
		return o, err
	}
	if !tr.on {
		return o, nil
	}
	if err := probeLayers(e, o.layers, nil, mixWrite, nil); err != nil {
		return o, err
	}
	o.opResidual(o.layers["query.hh_estimate_ns"])
	return o, nil
}

// runDurable runs a site agent (heavy hitters, L1, support sampler), an
// in-process aggregator and a query client over loopback TCP. Round =
// Agent.Ingest(4096), Flush, Sync, Client.Estimate(16 keys),
// CheckpointTo(store), OpenCheckpoint and Close of the reopened engine;
// headline call = Sync.
func runDurable(e *env) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}, log: e.log}
	in, tr := e.in, e.tr
	ingest := o.step("site_ingest", time.Millisecond, 0.5)
	drain := o.step("drain", time.Millisecond, 0.5)
	syncS := o.step("sync", time.Millisecond, 0.5, 0.95)
	remote := o.step("remote_query", time.Microsecond, 0.5)
	save := o.step("ckpt_save", time.Millisecond, 0.5, 0.95)
	open := o.step("ckpt_open", time.Millisecond, 0.5, 0.95)
	cyc := &cycler{ups: in.updates}
	remoteSet := in.keys[:remoteKeys]
	allocS := allocSample()
	var syncAllocs []float64
	ctx := context.Background()

	var record bool // false while setting up
	timed := func(name string, st *step, f func() error) error {
		m := tr.begin(name)
		err := f()
		d := tr.end(m)
		if st != nil && record {
			st.s.add(d)
		}
		o.call(err)
		return err
	}
	round := func(s *site) (time.Duration, error) {
		eng := s.agent.Engine()
		var oracle time.Duration
		rm := tr.begin("round")
		if err := timed("agent.ingest", ingest, func() error { return s.agent.Ingest(cyc.next(siteBatch)) }); err != nil {
			return 0, err
		}
		if err := timed("engine.flush", drain, eng.Flush); err != nil {
			return 0, err
		}
		a0 := allocBytes(allocS)
		if err := timed("agent.sync", syncS, func() error { return s.agent.Sync(ctx) }); err != nil {
			return 0, err
		}
		if record {
			syncAllocs = append(syncAllocs, float64(allocBytes(allocS)-a0))
		}
		var ans []float64
		if err := timed("client.estimate", remote, func() (err error) { ans, err = s.client.Estimate(remoteSet); return err }); err != nil {
			return 0, err
		}
		m := tr.begin("oracle")
		want, err := snapshotEstimates(eng, remoteSet)
		o.check(err == nil && slices.Equal(ans, want), "remote estimates %v, agent snapshot %v (%v)", ans, want, err)
		oracle += tr.end(m)
		if err := timed("engine.checkpoint_to", save, func() error { _, err := eng.CheckpointTo(s.store); return err }); err != nil {
			return 0, err
		}
		var re *engine.Engine
		if err := timed("engine.open_checkpoint", open, func() (err error) { re, err = engine.OpenCheckpoint(s.dir, engine.Options{}); return err }); err != nil {
			return 0, err
		}
		m = tr.begin("oracle")
		got, err1 := re.EstimateBatch(in.keys)
		live, err2 := eng.EstimateBatch(in.keys)
		o.check(err1 == nil && err2 == nil && slices.Equal(got, live), "reopened checkpoint answers differ from the live engine (%v, %v)", err1, err2)
		oracle += tr.end(m)
		if err := timed("engine.close", nil, re.Close); err != nil {
			return 0, err
		}
		return tr.end(rm) - oracle, nil
	}

	// Set-up: aggregator, agent, client, dial + HELLO, one warm-up round.
	setups := 0
	setUp := func() (*site, error) {
		setups++
		s, err := openSite(e, siteStructures, fmt.Sprintf("site%d", setups))
		if err != nil {
			return nil, err
		}
		if _, err := round(s); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	s, err := timedSetup(o, setUp)
	if err != nil {
		return nil, err
	}
	defer s.close()
	record = true

	var tally engineTally
	before := s.agent.Engine().Stats()
	a0, g0 := s.agent.Stats(), s.agg.Stats()
	err = loop(e, o, &tally, "agent.ingest", func(int) error {
		d, err := round(s)
		if err != nil {
			return err
		}
		o.op.add(time.Duration(syncS.s.ns[len(syncS.s.ns)-1]))
		o.endRound(d, siteBatch+remoteKeys)
		return nil
	}, func() { tally.add(before, s.agent.Engine().Stats()) }, func() error {
		record = false
		defer func() { record = true }()
		return setupRep(o, setUp, func(s *site) error { s.close(); return nil })()
	})
	if err != nil {
		return o, err
	}
	a1, g1 := s.agent.Stats(), s.agg.Stats()
	o.note("site_kkeys_per_s", float64(o.keys)/float64(o.roundNs)*1e6, "kkeys/s")
	if !tr.on {
		return o, nil
	}
	na := &netaggFacts{
		syncNs:             quantile(syncS.s.ns, 0.5),
		allocBytes:         median(syncAllocs),
		bytesPerSnapshot:   ratio(float64(a1.BytesOut-a0.BytesOut), float64(a1.SnapshotsSent-a0.SnapshotsSent)),
		viewBuildsPerQuery: ratio(float64(g1.ViewBuilds-g0.ViewBuilds), float64(g1.QueriesServed-g0.QueriesServed)),
	}
	if err := probeLayers(e, o.layers, s.agent.Engine(), siteBatch, na); err != nil {
		return o, err
	}
	o.opResidual(na.syncNs - o.layers["netagg.sync_residual_ms"]*1e6)
	return o, nil
}

// snapshotEstimates answers keys from UnmarshalSketch of the engine's
// merged heavy-hitters snapshot: the state an aggregator serves.
func snapshotEstimates(eng *engine.Engine, keys []uint64) ([]float64, error) {
	b, err := eng.Snapshot(engine.HeavyHitters)
	if err != nil {
		return nil, err
	}
	sk, err := bounded.UnmarshalSketch(b)
	if err != nil {
		return nil, err
	}
	hh, ok := sk.(*bounded.HeavyHitters)
	if !ok {
		return nil, fmt.Errorf("heavy-hitters snapshot decoded to %T", sk)
	}
	return hh.EstimateBatch(keys), nil
}

func sorted(xs []uint64) []uint64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}
