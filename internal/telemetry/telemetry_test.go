package telemetry

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBucketFor(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		// Exact below 16 ns.
		{0, 0}, {1, 1}, {15, 15},
		// Octave [16,32): 8 buckets 2 ns wide.
		{16, 16}, {17, 16}, {18, 17}, {31, 23},
		// Octave [32,64): 4 ns wide.
		{32, 24}, {36, 25}, {63, 31},
		// Octave [1024,2048): 128 ns wide.
		{1023, 16 + 5*8 + 7}, {1024, 16 + 6*8}, {1152, 16 + 6*8 + 1},
		{time.Hour, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestBucketResolution checks the HDR layout's contract: every
// duration lands in a bucket whose range holds it, a bucket's width is
// at most 1/8 of its low bound (exact below 16 ns), bucket ranges tile
// the line without gaps, and BucketBelow(k) splits at 2^k ns.
func TestBucketResolution(t *testing.T) {
	var prevEnd uint64
	for i := 0; i < NumBuckets; i++ {
		low, width := bucketLow(i)
		if low != prevEnd {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, low, prevEnd)
		}
		if low >= exactNS && width*subBuckets > low {
			t.Fatalf("bucket %d: width %d over 1/8 of low bound %d", i, width, low)
		}
		if low < exactNS && width != 1 {
			t.Fatalf("bucket %d below %d ns is not exact (width %d)", i, exactNS, width)
		}
		for _, ns := range []uint64{low, low + width/2, low + width - 1} {
			if i < NumBuckets-1 && bucketFor(time.Duration(ns)) != i {
				t.Fatalf("bucketFor(%d) = %d, want %d", ns, bucketFor(time.Duration(ns)), i)
			}
		}
		prevEnd = low + width
	}
	for k := 0; k <= maxOctave+1; k++ {
		below := BucketBelow(k)
		if below < NumBuckets {
			if low, _ := bucketLow(below); low != 1<<k {
				t.Errorf("BucketBelow(%d) = %d starts at %d ns, want %d", k, below, low, uint64(1)<<k)
			}
		}
	}
	// A quantile is a bucket midpoint, within 6.25% of any value in
	// the bucket.
	for _, ns := range []uint64{20, 48, 96, 100, 250, 384, 1000, 12345, 1 << 30} {
		var b HistBuckets
		b.Observe(time.Duration(ns))
		got := b.Quantile(0.5)
		if diff := float64(got) - float64(ns); diff > float64(ns)/16 || -diff > float64(ns)/16 {
			t.Errorf("p50 of {%d} = %d, off by more than 1/16", ns, got)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast (100 ns) and 10 slow (5000 ns).
	for i := 0; i < 90; i++ {
		h.Record(100)
	}
	for i := 0; i < 10; i++ {
		h.Record(5000)
	}
	b := h.Load()
	if got := b.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	p50 := b.Quantile(0.50)
	if p50 < 96 || p50 >= 104 {
		t.Errorf("p50 = %d, want in [96,104)", p50)
	}
	p99 := b.Quantile(0.99)
	if p99 < 4608 || p99 >= 5120 {
		t.Errorf("p99 = %d, want in [4608,5120)", p99)
	}
	if max := b.Max(); max < 4608 || max >= 5120 {
		t.Errorf("Max = %d, want in [4608,5120)", max)
	}
	var empty HistBuckets
	if empty.Quantile(0.5) != 0 || empty.Max() != 0 {
		t.Error("empty histogram quantiles must be 0")
	}
}

// TestConcurrentMergeProperty is the satellite property test: under
// concurrent recording (with live snapshots racing the writers), the
// final merged counts equal the sum of what each shard recorded.
func TestConcurrentMergeProperty(t *testing.T) {
	const (
		workers = 8
		perW    = 5000
	)
	r := New(Config{Classes: 4, RingSize: 256, RingSample: 1})
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() { // live sampler racing the writers
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := r.Snapshot()
				if s.Malloc.Count > workers*perW {
					t.Errorf("live snapshot overcounts: %d", s.Malloc.Count)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := newTestThread(r, uint64(w))
			for i := 0; i < perW; i++ {
				var sites []Site
				if i%3 == 0 {
					sites = append(sites, SiteActiveReserve)
				}
				if i%7 == 0 {
					sites = append(sites, SiteFreeFast)
				}
				th.malloc(i%5-1, time.Duration(i%2000), uint64(i), sites...) // class -1..3
				th.free(i%5-1, time.Duration(i%100), uint64(i))
				r.Stripes().Retry(SiteRegionPush, uint64(i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	s := r.Snapshot()
	if s.Mallocs != workers*perW || s.Frees != workers*perW {
		t.Errorf("exact totals = %d/%d, want %d each", s.Mallocs, s.Frees, workers*perW)
	}
	if got := s.Malloc.Count; got != workers*perW {
		t.Errorf("merged malloc count = %d, want %d", got, workers*perW)
	}
	if got := s.Free.Count; got != workers*perW {
		t.Errorf("merged free count = %d, want %d", got, workers*perW)
	}
	// Per-class rows must sum to the aggregate.
	var mallocRows uint64
	for _, row := range s.PerClass {
		if row.Op == "malloc" {
			mallocRows += row.Count
		}
	}
	if mallocRows != s.Malloc.Count {
		t.Errorf("per-class malloc rows sum to %d, aggregate %d", mallocRows, s.Malloc.Count)
	}
	wantReserve := uint64(workers) * ((perW + 2) / 3)
	if got := s.Retries[SiteActiveReserve.String()]; got != wantReserve {
		t.Errorf("active-reserve retries = %d, want %d", got, wantReserve)
	}
	wantFree := uint64(workers) * ((perW + 6) / 7)
	if got := s.Retries[SiteFreeFast.String()]; got != wantFree {
		t.Errorf("free-fast retries = %d, want %d", got, wantFree)
	}
	if got := s.Retries[SiteRegionPush.String()]; got != workers*perW {
		t.Errorf("region-push (striped) retries = %d, want %d", got, workers*perW)
	}
	if s.Threads != workers {
		t.Errorf("Threads = %d, want %d", s.Threads, workers)
	}
}

func TestRingWrapAndOrder(t *testing.T) {
	var r Ring
	r.init(64)
	if r.Cap() != 64 {
		t.Fatalf("Cap = %d", r.Cap())
	}
	for i := 1; i <= 200; i++ {
		r.Record(Event{Kind: EvMalloc, Class: i % 7, Thread: 3, Retries: uint64(i), Ptr: uint64(i), Nanos: uint64(i)})
	}
	evs := r.Events(0)
	if len(evs) != 64 {
		t.Fatalf("Events returned %d, want 64", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(200 - 64 + 1 + i)
		if e.Seq != wantSeq {
			t.Fatalf("event %d: seq %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Ptr != wantSeq || e.Retries != wantSeq || e.Thread != 3 {
			t.Errorf("event %d: fields %+v do not match seq %d", i, e, wantSeq)
		}
	}
	// Limited read.
	last := r.Events(5)
	if len(last) != 5 || last[4].Seq != 200 {
		t.Errorf("Events(5) = %d events ending at %d", len(last), last[len(last)-1].Seq)
	}
}

func TestRingConcurrent(t *testing.T) {
	var r Ring
	r.init(128)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // reader racing writers: events must be well-formed
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, e := range r.Events(0) {
					if e.Thread >= 4 || e.Kind >= numEventKinds {
						t.Errorf("torn event leaked: %+v", e)
						return
					}
				}
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < 4; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < 20000; i++ {
				r.Record(Event{Kind: EventKind(i % int(numEventKinds)), Class: -1, Hook: -1, Thread: uint64(w), Ptr: uint64(i)})
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := r.Recorded(); got != 80000 {
		t.Errorf("Recorded = %d, want 80000", got)
	}
}

func TestSnapshotSub(t *testing.T) {
	r := New(Config{Classes: 2, RingSample: 1})
	th := newTestThread(r, 0)
	th.malloc(0, 100, 1, SiteActivePop)
	base := r.Snapshot()
	for i := 0; i < 9; i++ {
		th.malloc(1, 5000, 2, SiteActivePop, SiteActivePop)
	}
	delta := r.Snapshot().Sub(base)
	if delta.Mallocs != 9 || delta.Malloc.Count != 9 {
		t.Errorf("delta mallocs = %d exact, %d timed; want 9, 9", delta.Mallocs, delta.Malloc.Count)
	}
	if got := delta.Retries[SiteActivePop.String()]; got != 18 {
		t.Errorf("delta retries = %d, want 18", got)
	}
	if p50 := delta.Malloc.P50NS; p50 < 4608 || p50 >= 5120 {
		t.Errorf("delta p50 = %d, want in [4608,5120) (baseline fast op must not leak in)", p50)
	}
	if rpo := delta.RetriesPerOp(); rpo != 2 {
		t.Errorf("delta retries/op = %v, want 2", rpo)
	}
}

func TestSnapshotJSONAndText(t *testing.T) {
	r := New(Config{Classes: 3, RingSample: 1})
	th := newTestThread(r, 7)
	th.malloc(2, 300, 42, SitePartialPop)
	sh := th.sh
	sh.Note(EvNewSB, 2, 4096)
	sh.NoteHook(5)
	s := r.Snapshot()

	data, err := s.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Mallocs != 1 || back.Malloc.Count != 1 || back.TotalRetries != 1 {
		t.Errorf("round-tripped snapshot lost data: %+v", back)
	}

	txt := s.Text(10)
	for _, want := range []string{"partial-pop", "malloc", "flight recorder", "new-sb", "hook=5"} {
		if !contains(txt, want) {
			t.Errorf("Text missing %q:\n%s", want, txt)
		}
	}
}

func TestSiteNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for s := Site(0); s < NumSites; s++ {
		n := s.String()
		if n == "" || n == "invalid-site" || seen[n] {
			t.Errorf("site %d has bad or duplicate name %q", s, n)
		}
		seen[n] = true
	}
	for k := EventKind(0); k < numEventKinds; k++ {
		if k.String() == "invalid-event" {
			t.Errorf("event kind %d unnamed", k)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestSnapshotMagazineCounters(t *testing.T) {
	r := New(Config{Classes: 2})
	sh := r.NewShard(0, nil)
	for i := 0; i < 3; i++ {
		sh.MagHit()
	}
	sh.MagMiss()
	sh.MagFlush(8)
	base := r.Snapshot()
	if base.MagHits != 3 || base.MagMisses != 1 || base.MagFlushes != 1 || base.MagFlushedBlocks != 8 {
		t.Fatalf("snapshot counters = %d/%d/%d/%d, want 3/1/1/8",
			base.MagHits, base.MagMisses, base.MagFlushes, base.MagFlushedBlocks)
	}
	if got := base.MagHitRate(); got != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", got)
	}
	if txt := base.Text(0); !contains(txt, "magazines: 75.0% hit rate") {
		t.Errorf("Text missing magazine line:\n%s", txt)
	}
	sh.MagHit()
	sh.MagFlush(4)
	delta := r.Snapshot().Sub(base)
	if delta.MagHits != 1 || delta.MagMisses != 0 || delta.MagFlushes != 1 || delta.MagFlushedBlocks != 4 {
		t.Errorf("delta counters = %d/%d/%d/%d, want 1/0/1/4",
			delta.MagHits, delta.MagMisses, delta.MagFlushes, delta.MagFlushedBlocks)
	}
	if got := delta.MagHitRate(); got != 1 {
		t.Errorf("delta hit rate = %v, want 1", got)
	}
	// A recorder with no magazine traffic shows neither counters nor line.
	quiet := New(Config{Classes: 2}).Snapshot()
	if quiet.MagHitRate() != 0 || contains(quiet.Text(0), "magazines:") {
		t.Error("magazine line leaked into magazine-free snapshot")
	}
}

// testThread stands in for an allocator thread: it owns the exact
// operation counters its shard reads (as core.Thread's OpStats do) and
// drives the shard the way core.Thread.Malloc/Free do.
type testThread struct {
	sh             *ThreadShard
	mallocs, frees atomic.Uint64
}

func newTestThread(r *Recorder, id uint64) *testThread {
	th := &testThread{}
	th.sh = r.NewShard(id, func() (uint64, uint64) { return th.mallocs.Load(), th.frees.Load() })
	return th
}

// malloc runs one malloc that fails a CAS at each of sites and, when
// the shard times it, took d.
func (th *testThread) malloc(class int, d time.Duration, ptr uint64, sites ...Site) {
	th.op(EvMalloc, class, d, ptr, sites)
	th.mallocs.Add(1)
}

func (th *testThread) free(class int, d time.Duration, ptr uint64, sites ...Site) {
	th.op(EvFree, class, d, ptr, sites)
	th.frees.Add(1)
}

func (th *testThread) op(kind EventKind, class int, d time.Duration, ptr uint64, sites []Site) {
	timed := th.sh.BeginOp(kind)
	for _, site := range sites {
		th.sh.Retry(site)
	}
	switch {
	case timed && kind == EvMalloc:
		th.sh.EndMalloc(class, d, ptr)
	case timed:
		th.sh.EndFree(class, d, ptr)
	case th.sh.Retried():
		th.sh.Note(kind, class, ptr)
	}
}

// TestSampledTiming: over K mallocs and K' frees on one thread exactly
// floor(K/N) mallocs and floor(K'/N) frees are timed (N =
// RingSample); the exact totals still count every op; every op that
// retried reaches the flight recorder, timed or not; and a workload
// that strictly alternates malloc and free gets both kinds timed.
func TestSampledTiming(t *testing.T) {
	const n = 8
	for _, k := range []int{0, 1, n - 1, n, n + 1, 2 * n, 1000, 1003} {
		r := New(Config{Classes: 2, RingSize: 4096, RingSample: n})
		th := newTestThread(r, 3)
		var seen [2]int // ops of each kind so far
		retried := 0
		for i := 0; i < k; i++ {
			var sites []Site
			if i%5 == 0 {
				sites = []Site{SiteFreeSlow}
			}
			kind := i % 2 // strict alternation: malloc, free, malloc, ...
			seen[kind]++
			if seen[kind]%n != 0 && len(sites) > 0 {
				retried++
			}
			if kind == 0 {
				th.malloc(0, 40, uint64(i), sites...)
			} else {
				th.free(1, 30, uint64(i), sites...)
			}
		}
		s := r.Snapshot()
		wantM, wantF := uint64(seen[0]/n), uint64(seen[1]/n)
		if s.Malloc.Count != wantM || s.Free.Count != wantF {
			t.Errorf("K=%d: %d/%d timed mallocs/frees, want %d/%d", k, s.Malloc.Count, s.Free.Count, wantM, wantF)
		}
		if got := s.Ops(); got != uint64(k) {
			t.Errorf("K=%d: exact ops = %d, want %d", k, got, k)
		}
		if got, want := s.EventsRecorded, wantM+wantF+uint64(retried); got != want {
			t.Errorf("K=%d: %d ring events, want %d timed + %d retried", k, got, wantM+wantF, retried)
		}
		for _, e := range s.Events {
			if e.Nanos == 0 && e.Retries == 0 {
				t.Errorf("K=%d: untimed event without retries recorded: %+v", k, e)
			}
		}
	}
}
