package engine

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	bounded "repro"
)

// TestRoutedPointReadsAllocFree pins the quiet-read cost: on a flushed
// engine, Estimate and Probe run on the caller's goroutine under the
// owning shard's lock, and the routed path allocates nothing.
func TestRoutedPointReadsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	s, _ := fig1Stream(5)
	e, err := New(testCfg, Options{Shards: 2, Structures: HeavyHitters | SupportSampler})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Ingest(s.Updates); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	var i uint64
	estimate := func() {
		i = (i + 7919) % (1 << 16)
		if _, err := e.Estimate(i); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(500, estimate); n != 0 {
		t.Errorf("Estimate on a flushed engine: %v allocs per call, want 0", n)
	}
	// The support sampler's own Contains allocates (its sparse-recovery
	// decode builds a map per level), so Probe is pinned to the
	// structure's count: the routed path itself must add nothing. The
	// flush above orders this direct read after the shard's last apply.
	const probed = 7
	sup := e.sets[e.ShardOf(probed)].sup
	own := testing.AllocsPerRun(100, func() { sup.Contains(probed) })
	probe := func() {
		if _, err := e.Probe(probed); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, probe); n != own {
		t.Errorf("Probe on a flushed engine: %v allocs per call, the sampler's Contains alone makes %v", n, own)
	}
}

// TestRoutedReadYourWritesHammer checks read-your-writes under the
// per-shard lock. A writer ingests small batches over a key set small
// enough for the sketches' exact regime; after each Ingest returns, a
// checker goroutine's Estimate, EstimateBatch, Probe and Support must
// reflect it exactly. A third goroutine reads concurrently without
// checking, so a pending run is sometimes applied by another reader,
// and the writer interleaves Flush — asserting Σ BatchesApplied ==
// BatchesSent — and SnapshotPartitioned.
// Close ends the run while the concurrent reader is still going: it
// must see errors, never a panic or a hang.
func TestRoutedReadYourWritesHammer(t *testing.T) {
	for _, shards := range []int{1, 3} {
		hammerReadYourWrites(t, shards)
	}
}

func hammerReadYourWrites(t *testing.T, shards int) {
	e, err := New(testCfg, Options{
		Shards: shards, BatchSize: 8, Queue: 1,
		Structures: HeavyHitters | SupportSampler,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 24)
	for j := range keys {
		keys[j] = uint64(j*7919+3) % (1 << 16)
	}

	// quiet lets the writer stop the concurrent reader while it checks
	// the post-Flush identity, which only holds with no read mid-apply.
	var quiet sync.RWMutex
	var closing atomic.Bool
	noiseDone := make(chan struct{})
	go func() {
		defer close(noiseDone)
		for n := 0; ; n++ {
			quiet.RLock()
			var err error
			switch n % 4 {
			case 0:
				_, err = e.Estimate(keys[n%len(keys)])
			case 1:
				_, err = e.EstimateBatch(keys)
			case 2:
				_, err = e.ProbeBatch(keys)
			case 3:
				_, err = e.Support()
			}
			quiet.RUnlock()
			if err != nil {
				if !closing.Load() {
					t.Errorf("shards=%d: concurrent read: %v", shards, err)
				}
				return
			}
		}
	}()
	// stop closes the engine under the running reader, which must then
	// see an error and exit. It is deferred too, so a failed round does
	// not leave the reader spinning; a second Close is a no-op.
	stop := func() error {
		closing.Store(true)
		err := e.Close()
		<-noiseDone
		return err
	}
	defer stop()

	type expectation struct {
		round int
		f     []int64
	}
	check := make(chan expectation)
	defer close(check)
	ok := make(chan bool)
	go func() {
		for want := range check {
			ok <- checkReads(t, e, shards, want.round, keys, want.f)
		}
	}()

	f := make([]int64, len(keys))
	const rounds = 200
	for r := 0; r < rounds; r++ {
		// Mostly 1–3 updates; every 10th round a burst of 64 fills
		// several runs, so the read finds messages still in the inbox.
		n := 1 + r%3
		if r%10 == 5 {
			n = 64
		}
		var batch []bounded.Update
		for u := 0; u < n; u++ {
			j := (r*5 + u*11) % len(keys)
			d := int64(1 + (r+u)%4)
			if (r+u)%3 == 0 && f[j] > 0 {
				d = -f[j] // delete the key entirely
			}
			f[j] += d
			batch = append(batch, bounded.Update{Index: keys[j], Delta: d})
		}
		if err := e.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		check <- expectation{round: r, f: append([]int64(nil), f...)}
		if !<-ok {
			break
		}
		switch r % 10 {
		case 3:
			quiet.Lock()
			if err := e.Flush(); err != nil {
				quiet.Unlock()
				t.Fatal(err)
			}
			st := e.Stats()
			quiet.Unlock()
			var applied int64
			for _, ps := range st.PerShard {
				applied += ps.BatchesApplied
			}
			if applied != st.BatchesSent {
				t.Errorf("shards=%d round %d: Σ BatchesApplied %d != BatchesSent %d after Flush", shards, r, applied, st.BatchesSent)
			}
		case 7:
			if _, err := e.SnapshotPartitioned(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().SnapshotBuilds; n != 0 {
		t.Errorf("shards=%d: routed reads built %d snapshots, want 0", shards, n)
	}
}

// checkReads compares every routed read against the exact frequencies
// f of keys, reporting (and returning false on) the first mismatch.
func checkReads(t *testing.T, e *Engine, shards, round int, keys []uint64, f []int64) bool {
	fail := func(format string, args ...any) bool {
		t.Errorf("shards=%d round %d: "+format, append([]any{shards, round}, args...)...)
		return false
	}
	batch, err := e.EstimateBatch(keys)
	if err != nil {
		return fail("EstimateBatch: %v", err)
	}
	probes, err := e.ProbeBatch(keys)
	if err != nil {
		return fail("ProbeBatch: %v", err)
	}
	var live []uint64
	for j, k := range keys {
		est, err := e.Estimate(k)
		if err != nil {
			return fail("Estimate(%d): %v", k, err)
		}
		in, err := e.Probe(k)
		if err != nil {
			return fail("Probe(%d): %v", k, err)
		}
		if est != float64(f[j]) || batch[j] != float64(f[j]) {
			return fail("key %d: Estimate %v, EstimateBatch %v, want %d", k, est, batch[j], f[j])
		}
		if in != (f[j] != 0) || probes[j] != in {
			return fail("key %d: Probe %v, ProbeBatch %v, f = %d", k, in, probes[j], f[j])
		}
		if f[j] != 0 {
			live = append(live, k)
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a] < live[b] })
	sup, err := e.Support()
	if err != nil {
		return fail("Support: %v", err)
	}
	if len(sup) != len(live) {
		return fail("Support = %v, want %v", sup, live)
	}
	for j := range sup {
		if sup[j] != live[j] {
			return fail("Support = %v, want %v", sup, live)
		}
	}
	return true
}

// TestRoutedReadsConcurrentProducers races routed reads against
// several producers at 4 shards, with runs small enough that claimed
// runs, stashed runs and full inboxes overlap constantly. Producers
// only insert, each on its own keys, and raise a key's bound before
// ingesting it, so no read may ever exceed the bound read after it: a
// run applied twice, or a torn read, shows as an overshoot. Once every
// producer is done and the engine is flushed, Σ BatchesApplied ==
// BatchesSent and every routed read must be exact.
func TestRoutedReadsConcurrentProducers(t *testing.T) {
	const shards, producers, perProducer, rounds = 4, 4, 6, 150
	e, err := New(testCfg, Options{
		Shards: shards, BatchSize: 8, Queue: 1,
		Structures: HeavyHitters | SupportSampler,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	keys := make([]uint64, producers*perProducer)
	for j := range keys {
		keys[j] = uint64(j*7919+3) % (1 << 16)
	}
	// bound[j] is key j's ingested mass plus the mass of any Ingest of
	// it in progress: an upper bound on what a read may see.
	bound := make([]atomic.Int64, len(keys))
	var wg sync.WaitGroup
	var failed atomic.Bool
	read := func(who string, js []int) {
		// Each index appears three times, so the batch is above the
		// scalar cutover and its duplicates must agree.
		idxs := make([]uint64, 0, 3*len(js))
		for r := 0; r < 3; r++ {
			for _, j := range js {
				idxs = append(idxs, keys[j])
			}
		}
		est, err := e.EstimateBatch(idxs)
		if err != nil {
			t.Errorf("%s: EstimateBatch: %v", who, err)
			failed.Store(true)
			return
		}
		probes, err := e.ProbeBatch(idxs)
		if err != nil {
			t.Errorf("%s: ProbeBatch: %v", who, err)
			failed.Store(true)
			return
		}
		sup, err := e.Support()
		if err != nil {
			t.Errorf("%s: Support: %v", who, err)
			failed.Store(true)
			return
		}
		ever := make(map[uint64]bool, len(keys))
		for j, k := range keys {
			ever[k] = bound[j].Load() > 0
		}
		for _, k := range sup {
			if !ever[k] {
				t.Errorf("%s: Support returned %d, never ingested", who, k)
				failed.Store(true)
			}
		}
		n := len(js)
		for p, j := range js {
			b := bound[j].Load()
			if est[p] < 0 || est[p] > float64(b) {
				t.Errorf("%s: key %d estimated %v, at most %d ingested", who, keys[j], est[p], b)
				failed.Store(true)
			}
			if est[p] != est[p+n] || est[p] != est[p+2*n] || probes[p] != probes[p+n] || probes[p] != probes[p+2*n] {
				t.Errorf("%s: duplicates of key %d disagree: %v %v %v / %v %v %v", who, keys[j],
					est[p], est[p+n], est[p+2*n], probes[p], probes[p+n], probes[p+2*n])
				failed.Store(true)
			}
			if probes[p] && b == 0 {
				t.Errorf("%s: Probe(%d) true, never ingested", who, keys[j])
				failed.Store(true)
			}
		}
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			own := make([]int, perProducer)
			for q := range own {
				own[q] = p*perProducer + q
			}
			for r := 0; r < rounds && !failed.Load(); r++ {
				n := 1 + r%3
				if r%10 == 5 {
					n = 24
				}
				batch := make([]bounded.Update, n)
				for u := range batch {
					j := own[(r+u*5)%perProducer]
					bound[j].Add(1)
					batch[u] = bounded.Update{Index: keys[j], Delta: 1}
				}
				if err := e.Ingest(batch); err != nil {
					t.Error(err)
					return
				}
				read("producer", own)
			}
		}(p)
	}
	all := make([]int, len(keys))
	for j := range all {
		all[j] = j
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			read("reader", all)
		}
	}
	if failed.Load() {
		return
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	var applied int64
	for _, ps := range st.PerShard {
		applied += ps.BatchesApplied
	}
	if applied != st.BatchesSent {
		t.Errorf("Σ BatchesApplied %d != BatchesSent %d after Flush", applied, st.BatchesSent)
	}
	idxs := make([]uint64, len(keys))
	copy(idxs, keys)
	est, err := e.EstimateBatch(idxs)
	if err != nil {
		t.Fatal(err)
	}
	for j := range keys {
		if want := bound[j].Load(); est[j] != float64(want) {
			t.Errorf("key %d: EstimateBatch %v after Flush, want %d", keys[j], est[j], want)
		}
	}
	sup, err := e.Support()
	if err != nil {
		t.Fatal(err)
	}
	if len(sup) != len(keys) {
		t.Errorf("Support after Flush has %d keys, want %d", len(sup), len(keys))
	}
	if n := e.Stats().SnapshotBuilds; n != 0 {
		t.Errorf("routed reads built %d snapshots, want 0", n)
	}
}
