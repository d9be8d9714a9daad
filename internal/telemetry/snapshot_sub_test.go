package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// mkSummary builds a HistSummary from (duration, count) observations so
// the tests construct buckets via the same mapping the recorder uses.
func mkSummary(obs map[time.Duration]uint64) HistSummary {
	var b HistBuckets
	for d, n := range obs {
		for i := uint64(0); i < n; i++ {
			b.Observe(d)
		}
	}
	return summarize(b)
}

func TestSnapshotSubRetries(t *testing.T) {
	s := Snapshot{
		Retries:      map[string]uint64{"malloc.active": 10, "free.anchor": 4, "partial.pop": 0},
		TotalRetries: 14,
	}
	base := Snapshot{
		Retries:      map[string]uint64{"malloc.active": 3, "free.anchor": 4},
		TotalRetries: 7,
	}
	d := s.Sub(base)
	want := map[string]uint64{"malloc.active": 7, "free.anchor": 0, "partial.pop": 0}
	for k, v := range want {
		if d.Retries[k] != v {
			t.Errorf("Retries[%q] = %d, want %d", k, d.Retries[k], v)
		}
	}
	if len(d.Retries) != len(want) {
		t.Errorf("delta has %d sites, want %d", len(d.Retries), len(want))
	}
	if d.TotalRetries != 7 {
		t.Errorf("TotalRetries = %d, want 7", d.TotalRetries)
	}
}

// TestSnapshotSubRetryUnderflow feeds a baseline whose per-site count
// exceeds the current snapshot's (possible when the two snapshots race
// counter updates read at different instants): the delta must clamp to
// zero, not wrap, and TotalRetries must stay the sum of the clamped
// per-site map rather than a subtraction of the totals.
func TestSnapshotSubRetryUnderflow(t *testing.T) {
	s := Snapshot{
		Retries:      map[string]uint64{"malloc.active": 2, "free.anchor": 9},
		TotalRetries: 11,
	}
	base := Snapshot{
		Retries:      map[string]uint64{"malloc.active": 5, "free.anchor": 1},
		TotalRetries: 6,
	}
	d := s.Sub(base)
	if d.Retries["malloc.active"] != 0 {
		t.Errorf("underflowed site = %d, want clamped 0", d.Retries["malloc.active"])
	}
	if d.Retries["free.anchor"] != 8 {
		t.Errorf("free.anchor delta = %d, want 8", d.Retries["free.anchor"])
	}
	// 11-6 = 5 would be the (wrong) totals subtraction; the clamped
	// per-site sum is 0+8.
	if d.TotalRetries != 8 {
		t.Errorf("TotalRetries = %d, want 8 (sum of clamped sites)", d.TotalRetries)
	}
	var sum uint64
	for _, v := range d.Retries {
		sum += v
	}
	if d.TotalRetries != sum {
		t.Errorf("TotalRetries %d inconsistent with per-site sum %d", d.TotalRetries, sum)
	}
}

// TestSnapshotSubQuantiles checks that subtraction recomputes quantiles
// from the subtracted buckets instead of subtracting the summary
// fields: removing the baseline's mass of fast observations must shift
// the delta's p50 up to the remaining slow population.
func TestSnapshotSubQuantiles(t *testing.T) {
	// Cumulative: 90 fast (~100ns) + 10 slow (~100µs). Baseline: the
	// first 80 fast ones. Delta: 10 fast + 10 slow → p50 moves into the
	// fast bucket still, p90/p99 into the slow bucket; with 80 more fast
	// removed, p50 of the delta is on the bucket boundary.
	s := Snapshot{
		Malloc: mkSummary(map[time.Duration]uint64{100 * time.Nanosecond: 90, 100 * time.Microsecond: 10}),
	}
	base := Snapshot{
		Malloc: mkSummary(map[time.Duration]uint64{100 * time.Nanosecond: 85}),
	}
	d := s.Sub(base)
	if d.Malloc.Count != 15 {
		t.Fatalf("delta count = %d, want 15", d.Malloc.Count)
	}
	// 5 fast + 10 slow: the 8th observation (p50) is slow.
	slowMid := mkSummary(map[time.Duration]uint64{100 * time.Microsecond: 1}).P50NS
	if d.Malloc.P50NS != slowMid {
		t.Errorf("delta p50 = %dns, want the slow bucket's mid %dns (quantiles must be recomputed, not subtracted)",
			d.Malloc.P50NS, slowMid)
	}
	// Sanity: naive subtraction of the cumulative p50s would give a
	// fast-bucket value; prove the recomputation moved it.
	if s.Malloc.P50NS == d.Malloc.P50NS {
		t.Errorf("delta p50 %dns equals cumulative p50 — subtraction had no effect on quantiles", d.Malloc.P50NS)
	}
	if n := d.Malloc.Buckets.Dense().Count(); n != 15 {
		t.Errorf("bucket count = %d, want 15", n)
	}
	// Bucket underflow clamps rather than wrapping.
	d2 := base.Sub(s)
	if d2.Malloc.Count != 0 {
		t.Errorf("reverse subtraction count = %d, want clamped 0", d2.Malloc.Count)
	}
}

// TestSnapshotSubPerClass verifies positional per-class subtraction and
// that a longer current PerClass (recorder reconfigured) passes rows
// missing from the baseline through unchanged.
func TestSnapshotSubPerClass(t *testing.T) {
	s := Snapshot{
		PerClass: []OpHist{
			{Op: "malloc", Class: 0, HistSummary: mkSummary(map[time.Duration]uint64{time.Microsecond: 10})},
			{Op: "free", Class: 0, HistSummary: mkSummary(map[time.Duration]uint64{time.Microsecond: 6})},
		},
	}
	base := Snapshot{
		PerClass: []OpHist{
			{Op: "malloc", Class: 0, HistSummary: mkSummary(map[time.Duration]uint64{time.Microsecond: 4})},
		},
	}
	d := s.Sub(base)
	if len(d.PerClass) != 2 {
		t.Fatalf("delta PerClass len = %d, want 2", len(d.PerClass))
	}
	if d.PerClass[0].Count != 6 {
		t.Errorf("subtracted row count = %d, want 6", d.PerClass[0].Count)
	}
	if d.PerClass[1].Count != 6 {
		t.Errorf("row missing from baseline = %d, want 6 (passed through)", d.PerClass[1].Count)
	}
	if d.PerClass[0].Op != "malloc" || d.PerClass[1].Op != "free" {
		t.Errorf("op labels lost: %q, %q", d.PerClass[0].Op, d.PerClass[1].Op)
	}
}

func TestSnapshotSubMagCounters(t *testing.T) {
	s := Snapshot{MagHits: 10, MagMisses: 5, MagFlushes: 3, MagFlushedBlocks: 24}
	base := Snapshot{MagHits: 4, MagMisses: 7, MagFlushes: 1, MagFlushedBlocks: 8}
	d := s.Sub(base)
	if d.MagHits != 6 || d.MagMisses != 0 || d.MagFlushes != 2 || d.MagFlushedBlocks != 16 {
		t.Errorf("mag deltas = %d/%d/%d/%d, want 6/0/2/16",
			d.MagHits, d.MagMisses, d.MagFlushes, d.MagFlushedBlocks)
	}
}

// TestSnapshotSubLive subtracts two real snapshots from one recorder —
// the documented use — and checks the interval accounting.
func TestSnapshotSubLive(t *testing.T) {
	r := New(Config{Classes: 4})
	sh := r.NewShard(0, nil)
	for i := 0; i < 10; i++ {
		sh.EndMalloc(1, time.Microsecond, 0x1000)
	}
	sh.Retry(SiteActiveReserve)
	base := r.Snapshot()
	for i := 0; i < 7; i++ {
		sh.EndMalloc(1, time.Microsecond, 0x1000)
	}
	sh.Retry(SiteActiveReserve)
	sh.Retry(SiteActiveReserve)
	d := r.Snapshot().Sub(base)
	if d.Malloc.Count != 7 {
		t.Errorf("interval mallocs = %d, want 7", d.Malloc.Count)
	}
	if d.TotalRetries != 2 {
		t.Errorf("interval retries = %d, want 2", d.TotalRetries)
	}
}

func TestSeriesRingAndDeltas(t *testing.T) {
	se := NewSeries(3)
	if se.Cap() != 3 {
		t.Fatalf("Cap = %d", se.Cap())
	}
	snapN := func(n uint64) Snapshot {
		return Snapshot{
			TakenUnixNano: int64(n),
			Retries:       map[string]uint64{"malloc.active": n * 10},
			TotalRetries:  n * 10,
		}
	}
	for n := uint64(1); n <= 5; n++ {
		pt := se.Add(snapN(n), nil)
		if pt.Seq != n {
			t.Fatalf("Add #%d returned seq %d", n, pt.Seq)
		}
		if pt.Delta.TotalRetries != 10 {
			t.Fatalf("point %d delta retries = %d, want 10", n, pt.Delta.TotalRetries)
		}
	}
	if se.Len() != 3 {
		t.Fatalf("Len = %d after wrap, want 3", se.Len())
	}
	pts := se.Points()
	if len(pts) != 3 || pts[0].Seq != 3 || pts[2].Seq != 5 {
		t.Fatalf("Points seqs = %v, want [3 4 5]", []uint64{pts[0].Seq, pts[1].Seq, pts[2].Seq})
	}
	last, ok := se.Last()
	if !ok || last.Seq != 5 {
		t.Fatalf("Last = %v %v", last.Seq, ok)
	}
	if _, ok := se.Get(2); ok {
		t.Error("Get(2) found an evicted point")
	}
	if pt, ok := se.Get(4); !ok || pt.Snapshot.TakenUnixNano != 4 {
		t.Errorf("Get(4) = %+v %v", pt, ok)
	}
	if _, ok := se.Get(0); ok {
		t.Error("Get(0) succeeded")
	}
	if _, ok := se.Get(99); ok {
		t.Error("Get(99) succeeded")
	}
}

func TestSeriesFirstPointDelta(t *testing.T) {
	se := NewSeries(4)
	s := Snapshot{
		Retries:      map[string]uint64{"free.anchor": 5},
		TotalRetries: 5,
		Malloc:       mkSummary(map[time.Duration]uint64{time.Microsecond: 3}),
	}
	pt := se.Add(s, nil)
	if pt.Delta.TotalRetries != 5 || pt.Delta.Malloc.Count != 3 {
		t.Errorf("first point delta = retries %d mallocs %d, want the snapshot itself (5, 3)",
			pt.Delta.TotalRetries, pt.Delta.Malloc.Count)
	}
}

func TestSeriesDropsEvents(t *testing.T) {
	se := NewSeries(2)
	s := Snapshot{Events: []Event{{Seq: 1}}, EventsRecorded: 1}
	pt := se.Add(s, nil)
	if pt.Snapshot.Events != nil {
		t.Error("series retained flight-recorder events")
	}
	if pt.Snapshot.EventsRecorded != 1 {
		t.Error("EventsRecorded dropped along with Events")
	}
}

func TestSeriesCensusPayload(t *testing.T) {
	se := NewSeries(2)
	type fakeCensus struct{ Blocks int }
	se.Add(Snapshot{}, fakeCensus{Blocks: 7})
	last, ok := se.Last()
	if !ok {
		t.Fatal("no last point")
	}
	fc, ok := last.Census.(fakeCensus)
	if !ok || fc.Blocks != 7 {
		t.Errorf("census payload = %#v", last.Census)
	}
}

// TestSnapshotSubExactTotals: Sub subtracts the exact op totals,
// clamping a racy larger baseline to zero, and RetriesPerOp divides by
// them rather than by the timed-observation counts.
func TestSnapshotSubExactTotals(t *testing.T) {
	s := Snapshot{Mallocs: 100, Frees: 60, TotalRetries: 32, Retries: map[string]uint64{"free-fast": 32}}
	base := Snapshot{Mallocs: 40, Frees: 80}
	d := s.Sub(base)
	if d.Mallocs != 60 || d.Frees != 0 {
		t.Errorf("exact deltas = %d/%d, want 60/0 (clamped)", d.Mallocs, d.Frees)
	}
	if got := d.Ops(); got != 60 {
		t.Errorf("Ops = %d, want 60", got)
	}
	if got := s.RetriesPerOp(); got != 0.2 {
		t.Errorf("RetriesPerOp = %v, want 32/160", got)
	}
}

// TestSparseBuckets: a summary keeps its buckets sparse, as [index,
// count] pairs of the non-empty ones, and they round-trip through JSON
// back to the dense vector.
func TestSparseBuckets(t *testing.T) {
	var b HistBuckets
	for _, d := range []time.Duration{0, 7, 100, 100, 5000, time.Hour} {
		b.Observe(d)
	}
	data, err := json.Marshal(summarize(b))
	if err != nil {
		t.Fatal(err)
	}
	if want := `"buckets":[[0,1],[7,1],[`; !strings.Contains(string(data), want) {
		t.Errorf("JSON = %s, want sparse pairs starting %s", data, want)
	}
	var back HistSummary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Buckets.Dense() != b {
		t.Errorf("round trip lost buckets: %s", data)
	}
}
