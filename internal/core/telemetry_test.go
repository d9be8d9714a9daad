package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
	"repro/internal/telemetry"
)

// TestTelemetryIntegration runs a real malloc/free workload with the
// telemetry layer attached and checks that the snapshot is internally
// consistent: operation counts match the work done, retry sites carry
// only known names, and the flight recorder captured events.
func TestTelemetryIntegration(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 2 // force heap sharing so retries actually occur
	rec := NewRecorder(telemetry.Config{RingSize: 256, RingSample: 4})
	cfg.Telemetry = rec
	a := New(cfg)
	if a.Telemetry() != rec {
		t.Fatal("Telemetry() did not return the attached recorder")
	}

	const workers = 8
	const iters = 4000
	sizes := []uint64{8, 64, 200, 1024, 40000} // last one is a large block
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := a.Thread()
			rng := rand.New(rand.NewSource(seed))
			var live []mem.Ptr
			for i := 0; i < iters; i++ {
				p, err := th.Malloc(sizes[rng.Intn(len(sizes))])
				if err != nil {
					t.Error(err)
					return
				}
				live = append(live, p)
				if len(live) > 32 {
					k := rng.Intn(len(live))
					th.Free(live[k])
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			for _, p := range live {
				th.Free(p)
			}
		}(int64(g))
	}
	wg.Wait()

	snap := rec.Snapshot()
	const total = workers * iters
	if snap.Mallocs != total {
		t.Errorf("snapshot malloc count = %d, want %d", snap.Mallocs, total)
	}
	if snap.Frees != total {
		t.Errorf("snapshot free count = %d, want %d", snap.Frees, total)
	}
	if snap.Threads != workers {
		t.Errorf("snapshot threads = %d, want %d", snap.Threads, workers)
	}
	for site := range snap.Retries {
		known := false
		for s := telemetry.Site(0); s < telemetry.NumSites; s++ {
			if s.String() == site {
				known = true
				break
			}
		}
		if !known {
			t.Errorf("snapshot contains unknown retry site %q", site)
		}
	}
	// Per-class histogram rows must sum to the aggregate.
	var perClassMallocs uint64
	for _, row := range snap.PerClass {
		if row.Op == "malloc" {
			perClassMallocs += row.Count
		}
	}
	if perClassMallocs != snap.Malloc.Count {
		t.Errorf("per-class malloc rows sum to %d, want %d", perClassMallocs, snap.Malloc.Count)
	}
	if snap.EventsRecorded == 0 {
		t.Error("flight recorder captured no events")
	}
	if snap.Malloc.P50NS == 0 || snap.Malloc.P99NS < snap.Malloc.P50NS {
		t.Errorf("implausible malloc latency quantiles: p50=%d p99=%d",
			snap.Malloc.P50NS, snap.Malloc.P99NS)
	}
}

// TestTelemetryExactTotalsLive churns with a Snapshot reader racing
// the workers (run under -race): live exact totals never go backwards,
// and after the workers stop they equal Allocator.Stats' operation
// counts, while the histograms hold only the timed ops — per-class
// rows summing to the aggregate.
func TestTelemetryExactTotalsLive(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 2
	rec := NewRecorder(telemetry.Config{RingSample: 16})
	cfg.Telemetry = rec
	a := New(cfg)

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var prev telemetry.Snapshot
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := rec.Snapshot()
			if s.Mallocs < prev.Mallocs || s.Frees < prev.Frees {
				t.Error("live exact totals went backwards")
				return
			}
			prev = s
		}
	}()

	const workers = 4
	const iters = 3000
	sizes := []uint64{8, 48, 300, 2000, 40000}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := a.Thread()
			rng := rand.New(rand.NewSource(seed))
			var live []mem.Ptr
			for i := 0; i < iters; i++ {
				p, err := th.Malloc(sizes[rng.Intn(len(sizes))])
				if err != nil {
					t.Error(err)
					return
				}
				live = append(live, p)
				if len(live) > 24 {
					k := rng.Intn(len(live))
					th.Free(live[k])
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			for _, p := range live {
				th.Free(p)
			}
		}(int64(g))
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	snap := rec.Snapshot()
	ops := a.Stats().Ops
	if snap.Mallocs != ops.Mallocs+ops.LargeMallocs || snap.Frees != ops.Frees+ops.LargeFrees {
		t.Errorf("snapshot totals %d/%d, Stats %d/%d", snap.Mallocs, snap.Frees,
			ops.Mallocs+ops.LargeMallocs, ops.Frees+ops.LargeFrees)
	}
	if snap.Mallocs != workers*iters || snap.Frees != workers*iters {
		t.Errorf("snapshot totals %d/%d, want %d each", snap.Mallocs, snap.Frees, workers*iters)
	}
	// Each thread times exactly every 16th of its iters mallocs and
	// every 16th of its iters frees.
	if got, want := snap.Malloc.Count+snap.Free.Count, uint64(workers*2*(iters/16)); got != want {
		t.Errorf("timed observations = %d, want %d", got, want)
	}
	var perClassMallocs uint64
	for _, row := range snap.PerClass {
		if row.Op == "malloc" {
			perClassMallocs += row.Count
		}
	}
	if perClassMallocs != snap.Malloc.Count {
		t.Errorf("per-class malloc rows sum to %d, want %d", perClassMallocs, snap.Malloc.Count)
	}
}

// TestTelemetryRetriedOpRecorded: an untimed Free whose anchor CAS
// fails (another thread frees into the same superblock between its
// load and its CAS, forced with the HookFreeBeforeCAS hook) must still
// reach the flight recorder, with its retry and without a latency.
func TestTelemetryRetriedOpRecorded(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 1
	rec := NewRecorder(telemetry.Config{RingSample: 1 << 30}) // nothing timed
	cfg.Telemetry = rec
	a := New(cfg)
	A, B := a.Thread(), a.Thread()
	var blocks [4]mem.Ptr
	for i := range blocks {
		p, err := A.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		blocks[i] = p
	}
	fired := false
	A.SetHook(func(hp HookPoint) {
		if hp == HookFreeBeforeCAS && !fired {
			fired = true
			B.Free(blocks[1]) // moves the anchor under A's pending CAS
		}
	})
	A.Free(blocks[0])
	A.SetHook(nil)
	if !fired {
		t.Fatal("HookFreeBeforeCAS never fired")
	}
	snap := rec.Snapshot()
	if snap.Retries[telemetry.SiteFreeFast.String()] == 0 {
		t.Fatal("forced anchor interference caused no free-fast retry")
	}
	if snap.Malloc.Count+snap.Free.Count != 0 {
		t.Errorf("%d ops timed with RingSample 2^30", snap.Malloc.Count+snap.Free.Count)
	}
	found := false
	for _, e := range snap.Events {
		if e.Kind == telemetry.EvFree && e.Thread == A.ID() && e.Ptr == uint64(blocks[0]) {
			found = true
			if e.Retries == 0 || e.Nanos != 0 || e.Class != 0 {
				t.Errorf("retried free event = %+v, want retries > 0, no latency, class 0", e)
			}
		}
		if e.Kind == telemetry.EvFree && e.Thread == B.ID() {
			t.Errorf("B's uncontended untimed free reached the ring: %+v", e)
		}
	}
	if !found {
		t.Errorf("retried untimed free missing from the flight recorder: %+v", snap.Events)
	}
	A.Free(blocks[2])
	A.Free(blocks[3])
}

// TestStatsLiveSampling exercises the documented Stats snapshot
// semantics: Stats may be called from any goroutine while workers are
// mid-operation (race-detector clean), every sampled counter is
// monotone, and at quiescence the cross-counter identities hold
// exactly.
func TestStatsLiveSampling(t *testing.T) {
	a := New(testConfig())
	const workers = 6
	const iters = 5000

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	var samples atomic.Uint64
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		var prev Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := a.Stats()
			samples.Add(1)
			if s.Ops.Mallocs < prev.Ops.Mallocs || s.Ops.Frees < prev.Ops.Frees {
				t.Error("live Stats sample went backwards")
				return
			}
			prev = s
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := a.Thread()
			rng := rand.New(rand.NewSource(seed))
			var live []mem.Ptr
			for i := 0; i < iters; i++ {
				p, err := th.Malloc(uint64(8 + rng.Intn(500)))
				if err != nil {
					t.Error(err)
					return
				}
				live = append(live, p)
				if len(live) > 16 {
					th.Free(live[0])
					live = live[1:]
				}
			}
			for _, p := range live {
				th.Free(p)
			}
		}(int64(g))
	}
	wg.Wait()
	close(stop)
	sampler.Wait()

	if samples.Load() == 0 {
		t.Fatal("sampler never ran")
	}
	s := a.Stats()
	const total = workers * iters
	if s.Ops.Mallocs+s.Ops.LargeMallocs != total {
		t.Errorf("mallocs = %d, want %d", s.Ops.Mallocs+s.Ops.LargeMallocs, total)
	}
	if s.Ops.Frees+s.Ops.LargeFrees != total {
		t.Errorf("frees = %d, want %d", s.Ops.Frees+s.Ops.LargeFrees, total)
	}
	if got := s.Ops.FromActive + s.Ops.FromPartial + s.Ops.FromNewSB; got != s.Ops.Mallocs {
		t.Errorf("malloc sources sum to %d, want Mallocs=%d", got, s.Ops.Mallocs)
	}
}

// TestTelemetryRetrySitesUnderContention hammers two threads on one
// processor heap so Active-word CAS failures are likely, then checks
// that retries were observed and attributed to known hot sites.
func TestTelemetryRetrySitesUnderContention(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 1 // all threads share every processor heap
	rec := NewRecorder(telemetry.Config{})
	cfg.Telemetry = rec
	a := New(cfg)

	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := a.Thread()
			for i := 0; i < 20000; i++ {
				p, err := th.Malloc(16)
				if err != nil {
					t.Error(err)
					return
				}
				th.Free(p)
			}
		}()
	}
	wg.Wait()

	snap := rec.Snapshot()
	if snap.TotalRetries == 0 {
		t.Skip("no CAS retries observed (machine too serial); nothing to attribute")
	}
	var sum uint64
	for _, v := range snap.Retries {
		sum += v
	}
	if sum != snap.TotalRetries {
		t.Errorf("retry site sum %d != TotalRetries %d", sum, snap.TotalRetries)
	}
	if snap.RetriesPerOp() <= 0 {
		t.Errorf("RetriesPerOp = %v, want > 0", snap.RetriesPerOp())
	}
}
