package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// HistSummary is a merged histogram with derived quantiles. Only timed
// operations (one in Config.RingSample per thread and op kind) are
// observed, so Count is the number of timed observations, not of
// operations; the exact operation totals are Snapshot.Mallocs and
// Snapshot.Frees.
type HistSummary struct {
	Count   uint64        `json:"count"`
	P50NS   uint64        `json:"p50ns"`
	P90NS   uint64        `json:"p90ns"`
	P99NS   uint64        `json:"p99ns"`
	MaxNS   uint64        `json:"maxns"`
	Buckets SparseBuckets `json:"buckets"`
}

func summarize(b HistBuckets) HistSummary {
	return HistSummary{
		Count:   b.Count(),
		P50NS:   b.Quantile(0.50),
		P90NS:   b.Quantile(0.90),
		P99NS:   b.Quantile(0.99),
		MaxNS:   b.Max(),
		Buckets: b.Sparse(),
	}
}

// OpHist is one (op, size class) histogram row.
type OpHist struct {
	Op    string `json:"op"`    // "malloc" or "free"
	Class int    `json:"class"` // size-class index, -1 for large blocks
	HistSummary
}

// Snapshot is a point-in-time merge of all telemetry state. It is a
// consistent-enough racy snapshot: every counter is loaded atomically
// and monotone, but counters read at slightly different instants (the
// same semantics as Allocator.Stats).
type Snapshot struct {
	// TakenUnixNano is when the snapshot was taken.
	TakenUnixNano int64 `json:"takenUnixNano"`
	// UptimeNS is the time since the Recorder was created.
	UptimeNS int64 `json:"uptimeNS"`
	// Threads is the number of registered thread shards.
	Threads int `json:"threads"`

	// Retries maps site name to total failed-CAS count (thread shards
	// plus stripes).
	Retries map[string]uint64 `json:"retries"`
	// TotalRetries is the sum over all sites.
	TotalRetries uint64 `json:"totalRetries"`

	// Magazine-layer counters, summed over thread shards (all zero
	// when Config.MagazineSize is 0): mallocs served from thread-local
	// magazines, misses that triggered a batched refill, flush batches
	// spliced back, and blocks those batches returned.
	MagHits          uint64 `json:"magHits,omitempty"`
	MagMisses        uint64 `json:"magMisses,omitempty"`
	MagFlushes       uint64 `json:"magFlushes,omitempty"`
	MagFlushedBlocks uint64 `json:"magFlushedBlocks,omitempty"`

	// Offload-layer counters, summed over thread shards (all zero when
	// the offload mode is off): worker stash hits/misses, requests
	// submitted to the allocator cores, batches executed (with their
	// total block count), and synchronous fallbacks.
	OffHits       uint64 `json:"offHits,omitempty"`
	OffMisses     uint64 `json:"offMisses,omitempty"`
	OffSubmits    uint64 `json:"offSubmits,omitempty"`
	OffBatches    uint64 `json:"offBatches,omitempty"`
	OffBatchedOps uint64 `json:"offBatchedOps,omitempty"`
	OffFallbacks  uint64 `json:"offFallbacks,omitempty"`

	// Mallocs and Frees are the exact totals of completed operations
	// (large blocks included), read from each thread's own operation
	// counters rather than counted a second time by telemetry.
	Mallocs uint64 `json:"mallocs"`
	Frees   uint64 `json:"frees"`

	// Malloc and Free aggregate the latency of timed operations over
	// all size classes (including large blocks); their Count is the
	// number of timed operations (see HistSummary).
	Malloc HistSummary `json:"malloc"`
	Free   HistSummary `json:"free"`
	// PerClass holds every (op, class) row, including empty ones so
	// two snapshots from the same recorder subtract positionally. Row
	// counts are timed observations; the malloc rows sum to
	// Malloc.Count.
	PerClass []OpHist `json:"perClass"`

	// Events are the most recent flight-recorder events, oldest
	// first.
	Events []Event `json:"events,omitempty"`
	// EventsRecorded is the total number of events ever recorded
	// (Events holds at most the ring capacity).
	EventsRecorded uint64 `json:"eventsRecorded"`
}

// Snapshot merges all shards, stripes, and the flight recorder.
func (r *Recorder) Snapshot() Snapshot {
	shards := *r.shards.Load()
	now := time.Now()
	s := Snapshot{
		TakenUnixNano: now.UnixNano(),
		UptimeNS:      now.Sub(r.started).Nanoseconds(),
		Threads:       len(shards),
		Retries:       make(map[string]uint64, NumSites),
	}

	var siteTotals [NumSites]uint64
	for _, sh := range shards {
		if sh.totals != nil {
			m, f := sh.totals()
			s.Mallocs += m
			s.Frees += f
		}
		for i := range sh.retries {
			siteTotals[i] += sh.retries[i].Load()
		}
		s.MagHits += sh.magHits.Load()
		s.MagMisses += sh.magMisses.Load()
		s.MagFlushes += sh.magFlushes.Load()
		s.MagFlushedBlocks += sh.magFlushed.Load()
		s.OffHits += sh.offHits.Load()
		s.OffMisses += sh.offMisses.Load()
		s.OffSubmits += sh.offSubmits.Load()
		s.OffBatches += sh.offBatches.Load()
		s.OffBatchedOps += sh.offBatched.Load()
		s.OffFallbacks += sh.offFallbacks.Load()
	}
	for i := range r.stripes.stripes {
		st := &r.stripes.stripes[i]
		for j := range st.counts {
			siteTotals[j] += st.counts[j].Load()
		}
	}
	for i, n := range siteTotals {
		s.Retries[Site(i).String()] = n
		s.TotalRetries += n
	}

	rows := 2 * (r.cfg.Classes + 1)
	merged := make([]HistBuckets, rows)
	for _, sh := range shards {
		for i := range sh.hist {
			b := sh.hist[i].Load()
			merged[i].Add(b)
		}
	}
	s.PerClass = make([]OpHist, rows)
	var mallocAll, freeAll HistBuckets
	for i := range merged {
		op, class := rowOpClass(i, r.cfg.Classes)
		s.PerClass[i] = OpHist{Op: op, Class: class, HistSummary: summarize(merged[i])}
		if op == "malloc" {
			mallocAll.Add(merged[i])
		} else {
			freeAll.Add(merged[i])
		}
	}
	s.Malloc = summarize(mallocAll)
	s.Free = summarize(freeAll)

	s.Events = r.ring.Events(0)
	s.EventsRecorded = r.ring.Recorded()
	return s
}

func rowOpClass(row, classes int) (string, int) {
	op := "malloc"
	if row >= classes+1 {
		op = "free"
		row -= classes + 1
	}
	class := row
	if class == classes {
		class = -1 // large
	}
	return op, class
}

// Sub returns the delta snapshot s minus an earlier baseline from the
// same Recorder: op totals, retry counts and histogram buckets are
// subtracted and quantiles recomputed, so a benchmark can report only
// its own interval. Events and EventsRecorded are taken from s
// unchanged.
func (s Snapshot) Sub(base Snapshot) Snapshot {
	out := s
	out.Retries = make(map[string]uint64, len(s.Retries))
	out.TotalRetries = 0
	for k, v := range s.Retries {
		d := v - base.Retries[k]
		if base.Retries[k] > v {
			d = 0
		}
		out.Retries[k] = d
		out.TotalRetries += d
	}
	sub := func(a, b uint64) uint64 {
		if b > a {
			return 0
		}
		return a - b
	}
	out.Mallocs = sub(s.Mallocs, base.Mallocs)
	out.Frees = sub(s.Frees, base.Frees)
	out.MagHits = sub(s.MagHits, base.MagHits)
	out.MagMisses = sub(s.MagMisses, base.MagMisses)
	out.MagFlushes = sub(s.MagFlushes, base.MagFlushes)
	out.MagFlushedBlocks = sub(s.MagFlushedBlocks, base.MagFlushedBlocks)
	out.OffHits = sub(s.OffHits, base.OffHits)
	out.OffMisses = sub(s.OffMisses, base.OffMisses)
	out.OffSubmits = sub(s.OffSubmits, base.OffSubmits)
	out.OffBatches = sub(s.OffBatches, base.OffBatches)
	out.OffBatchedOps = sub(s.OffBatchedOps, base.OffBatchedOps)
	out.OffFallbacks = sub(s.OffFallbacks, base.OffFallbacks)
	subSummary := func(a, b HistSummary) HistSummary {
		bk := a.Buckets.Dense()
		bk.Sub(b.Buckets.Dense())
		return summarize(bk)
	}
	out.Malloc = subSummary(s.Malloc, base.Malloc)
	out.Free = subSummary(s.Free, base.Free)
	out.PerClass = make([]OpHist, len(s.PerClass))
	for i := range s.PerClass {
		out.PerClass[i] = s.PerClass[i]
		if i < len(base.PerClass) {
			out.PerClass[i].HistSummary = subSummary(s.PerClass[i].HistSummary, base.PerClass[i].HistSummary)
		}
	}
	return out
}

// Ops returns the exact total of completed operations (mallocs +
// frees).
func (s Snapshot) Ops() uint64 { return s.Mallocs + s.Frees }

// RetriesPerOp returns TotalRetries normalized by operations.
func (s Snapshot) RetriesPerOp() float64 {
	ops := s.Ops()
	if ops == 0 {
		return 0
	}
	return float64(s.TotalRetries) / float64(ops)
}

// MagHitRate returns the fraction of magazine-eligible mallocs served
// from a thread-local magazine, or 0 when magazines were off.
func (s Snapshot) MagHitRate() float64 {
	total := s.MagHits + s.MagMisses
	if total == 0 {
		return 0
	}
	return float64(s.MagHits) / float64(total)
}

// OffHitRate returns the fraction of offload-eligible mallocs served
// from a worker's local stash, or 0 when the offload mode was off.
func (s Snapshot) OffHitRate() float64 {
	total := s.OffHits + s.OffMisses
	if total == 0 {
		return 0
	}
	return float64(s.OffHits) / float64(total)
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Text renders a human-readable dashboard: retry counters (non-zero
// sites, descending), latency summaries (n= counts timed operations),
// the busiest per-class rows, and the tail of the flight recorder.
func (s Snapshot) Text(maxEvents int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry: uptime %v, %d threads, %d ops (%d malloc / %d free)\n",
		time.Duration(s.UptimeNS).Round(time.Millisecond),
		s.Threads, s.Ops(), s.Mallocs, s.Frees)
	fmt.Fprintf(&b, "contention: %d CAS retries total (%.4f retries/op)\n",
		s.TotalRetries, s.RetriesPerOp())
	if s.MagHits+s.MagMisses > 0 {
		fmt.Fprintf(&b, "magazines: %.1f%% hit rate (%d hits / %d misses), %d flushes (%d blocks)\n",
			100*s.MagHitRate(), s.MagHits, s.MagMisses, s.MagFlushes, s.MagFlushedBlocks)
	}
	if s.OffHits+s.OffMisses+s.OffSubmits > 0 {
		fmt.Fprintf(&b, "offload: %.1f%% stash hit rate (%d hits / %d misses), %d submits, %d batches (%d blocks), %d fallbacks\n",
			100*s.OffHitRate(), s.OffHits, s.OffMisses, s.OffSubmits, s.OffBatches, s.OffBatchedOps, s.OffFallbacks)
	}

	type kv struct {
		name string
		n    uint64
	}
	var sites []kv
	for name, n := range s.Retries {
		if n > 0 {
			sites = append(sites, kv{name, n})
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].n != sites[j].n {
			return sites[i].n > sites[j].n
		}
		return sites[i].name < sites[j].name
	})
	for _, site := range sites {
		fmt.Fprintf(&b, "  %-22s %d\n", site.name, site.n)
	}

	fmtLat := func(name string, h HistSummary) {
		fmt.Fprintf(&b, "%-8s n=%-10d p50=%-8s p90=%-8s p99=%-8s max=%s\n",
			name, h.Count, ns(h.P50NS), ns(h.P90NS), ns(h.P99NS), ns(h.MaxNS))
	}
	fmtLat("malloc", s.Malloc)
	fmtLat("free", s.Free)

	// Busiest classes, by op count.
	rows := append([]OpHist(nil), s.PerClass...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Count > rows[j].Count })
	shown := 0
	for _, row := range rows {
		if row.Count == 0 || shown >= 8 {
			break
		}
		cls := fmt.Sprintf("class %d", row.Class)
		if row.Class < 0 {
			cls = "large"
		}
		fmt.Fprintf(&b, "  %-6s %-9s n=%-10d p50=%-8s p99=%s\n",
			row.Op, cls, row.Count, ns(row.P50NS), ns(row.P99NS))
		shown++
	}

	if maxEvents != 0 && len(s.Events) > 0 {
		ev := s.Events
		if maxEvents > 0 && len(ev) > maxEvents {
			ev = ev[len(ev)-maxEvents:]
		}
		fmt.Fprintf(&b, "flight recorder: %d events recorded, last %d:\n",
			s.EventsRecorded, len(ev))
		for _, e := range ev {
			fmt.Fprintf(&b, "  #%-8d t%-4d %-9s class=%-3d retries=%-4d ptr=%#x",
				e.Seq, e.Thread, e.Kind, e.Class, e.Retries, e.Ptr)
			if e.Nanos > 0 {
				fmt.Fprintf(&b, " %s", ns(e.Nanos))
			}
			if e.Hook >= 0 {
				fmt.Fprintf(&b, " hook=%d", e.Hook)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func ns(n uint64) string {
	return time.Duration(n).String()
}
