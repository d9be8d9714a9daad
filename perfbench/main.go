// Command perfbench is the repository's benchmark: it drives the
// default lock-free allocator (alloc.NewLockFree with library defaults,
// two processors, GOMAXPROCS=2) with one of four seeded closed-loop
// workloads, checks that the outputs are correct, and prints every
// metric by name with its unit and sample count. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with --trace 1 they are the per-layer ones, from an
// untraced pass, a span pass, a telemetry-counter pass, layer probes
// and a serial-baseline pass. See README.md for every metric.
//
// Usage:
//
//	perfbench --workload larson --seed 1 --seconds 10 --trace 0 [--out DIR] [--commit SHA]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// rounds is how many times the end-to-end run sets the workload up
// and measures it; each end-to-end metric summarises the rounds (see
// endToEnd).
const rounds = 20

// spanCap is each worker's span buffer capacity in the span pass.
const spanCap = 1 << 18

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: larson, churn, prodcons or larson-telemetry")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	out := fs.String("out", "", "directory for the span file (none if empty)")
	commit := fs.String("commit", "unknown", "source commit, for the provenance record")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	sp, ok := workloads[*name]
	if !ok || *seconds <= 0 || *traceMode < 0 || *traceMode > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (larson, churn, prodcons, larson-telemetry), --seconds > 0, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(workers)
	dur := int64(*seconds * 1e9)

	r := &report{}
	var err error
	if *traceMode == 0 {
		err = endToEnd(r, sp, *seed, dur)
	} else {
		err = perLayer(r, sp, *seed, dur, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r.print(provenance(r.b, *seed, *seconds, *traceMode, *commit))
	return 0
}

// pass is one set-up and timed phase of a workload.
type pass struct {
	b       *bench
	ops     uint64 // workload ops completed in the timed phase
	opsPerS float64
	lat     [][]uint32 // per-batch durations in ticks of each worker that times batches
	batches uint64
	mallocs uint64 // attempted in the timed phase
	fails   uint64
	maxLive uint64 // bytes held from internal/mem at the peak of the timed phase
	reserve uint64 // bytes of address space reserved at the end
	opStats core.OpStats
	heap    mem.Stats // region counters moved in the timed phase
	retries map[string]uint64
	tracers []*tracer
}

// setUp constructs the allocator, prefills and warms the workload.
func setUp(sp spec, seed int64) (*bench, float64, error) {
	runtime.GC()
	t0 := nowNS()
	b, err := newBench(sp, seed)
	if err != nil {
		return nil, 0, err
	}
	for _, w := range b.ws {
		w.prefill()
	}
	b.runPhase(phase{ops: warmOps[sp.kind]})
	return b, float64(nowNS()-t0) / 1e9, nil
}

// spansPerOp bounds the spans one sampled op records (churn samples
// whole cycles).
var spansPerOp = map[kind]uint64{kindLarson: 3, kindChurn: 2*churnBatch + 1, kindProdcons: 5}

// opsPerSpanOp is how many workload ops one op span covers: a churn
// cycle is churnBatch ops; a prodcons task has a producer and a
// consumer op span.
var opsPerSpanOp = map[kind]float64{kindLarson: 1, kindChurn: churnBatch, kindProdcons: 0.5}

// measure runs the timed phase for dur ns and collects the counters
// that moved. With spans set, each worker records 1-in-N ops, N chosen
// from the warm-up rate so the buffers last the phase.
func (b *bench) measure(dur int64, spans bool) *pass {
	for _, w := range b.ws {
		perNS := float64(w.ops) / float64(max(w.end-w.start, 1))
		expect := perNS * float64(dur)
		w.lat = make([]uint32, 0, int(expect/float64(batchOps[b.kind])*1.5)+1024)
		if spans {
			sampled := expect
			if b.kind == kindChurn {
				sampled /= churnBatch
			}
			// Odd, so sampling never locks onto a power-of-two period
			// in the allocator (the recorder's 1-in-64 ring sampling).
			every := uint64(2*sampled*float64(spansPerOp[b.kind])/spanCap) | 1
			w.tr = newTracer(spanCap, max(every, 17))
		}
		w.mallocs, w.fails = 0, 0
	}
	p := &pass{b: b}
	var before core.OpStats
	if b.core != nil {
		before = b.core.Stats().Ops
	}
	var snap telemetry.Snapshot
	if b.rec != nil {
		snap = b.rec.Snapshot()
	}
	heap0 := b.heap.Stats()

	runtime.GC()
	gc := debug.SetGCPercent(-1)
	b.heap.ResetMaxLive()
	start := nowNS()
	b.runPhase(phase{until: ticks() + int64(float64(dur)/nsPerTick()), record: true})
	end := start
	for _, w := range b.ws {
		end = max(end, w.end)
	}
	debug.SetGCPercent(gc)

	heap1 := b.heap.Stats()
	p.maxLive = heap1.MaxLiveWords * mem.WordBytes
	p.reserve = heap1.ReservedWords * mem.WordBytes
	p.heap = mem.Stats{
		RegionAllocs:  heap1.RegionAllocs - heap0.RegionAllocs,
		RegionFrees:   heap1.RegionFrees - heap0.RegionFrees,
		ReusedRegions: heap1.ReusedRegions - heap0.ReusedRegions,
		Steals:        heap1.Steals - heap0.Steals,
	}
	if b.core != nil {
		p.opStats = subOps(b.core.Stats().Ops, before)
	}
	if b.rec != nil {
		p.retries = b.rec.Snapshot().Sub(snap).Retries
	}
	for _, w := range b.ws {
		if len(w.lat) > 0 {
			p.lat = append(p.lat, w.lat)
			p.batches += uint64(len(w.lat))
		}
		p.mallocs += w.mallocs
		p.fails += w.fails
		if b.kind != kindProdcons || w.id != pcProducer {
			p.ops += w.ops
		}
		if w.tr != nil {
			p.tracers = append(p.tracers, w.tr)
		}
	}
	p.opsPerS = float64(p.ops) / (float64(end-start) / 1e9)
	return p
}

// opQuantiles returns the per-op median and 99th percentile: batch
// time / batchOps, per worker that times batches (both, or the prodcons
// producer), averaged over those workers. Averaging per-worker
// quantiles, rather than taking quantiles of all batches pooled, keeps
// a difference in speed between the two workers from moving the pooled
// median between their two modes.
func (p *pass) opQuantiles() (p50, p99 float64) {
	scale := nsPerTick() / float64(batchOps[p.b.kind])
	for _, lat := range p.lat {
		a, b := batchQuantiles(lat, scale)
		p50 += a / float64(len(p.lat))
		p99 += b / float64(len(p.lat))
	}
	return p50, p99
}

func subOps(a, b core.OpStats) core.OpStats {
	return core.OpStats{
		Mallocs:       a.Mallocs - b.Mallocs,
		Frees:         a.Frees - b.Frees,
		LargeMallocs:  a.LargeMallocs - b.LargeMallocs,
		LargeFrees:    a.LargeFrees - b.LargeFrees,
		FromActive:    a.FromActive - b.FromActive,
		FromPartial:   a.FromPartial - b.FromPartial,
		FromNewSB:     a.FromNewSB - b.FromNewSB,
		NewSBRaceLoss: a.NewSBRaceLoss - b.NewSBRaceLoss,
		EmptySBFreed:  a.EmptySBFreed - b.EmptySBFreed,
	}
}

// runPass sets up sp, runs a timed phase of dur ns, and checks the
// outputs.
func runPass(sp spec, seed int64, dur int64) (*pass, error) {
	b, _, err := setUp(sp, seed)
	if err != nil {
		return nil, err
	}
	p := b.measure(dur, sp.spans)
	if err := b.drain(); err != nil {
		return nil, err
	}
	return p, nil
}

// endToEnd measures the end-to-end metrics over several rounds, each
// a set-up (whose time is setup_s) and a timed phase on a fresh
// allocator. ops_per_s and the latencies are the mean of the middle
// half of the rounds: the host's processor speed switches between a
// fast and a slow mode about 1.5x apart for seconds at a time, and a
// mean moves with the share of rounds in each mode where a median
// jumps from one mode to the other; dropping the outer quarters keeps
// a round that one stall or one unlucky layout slowed from moving it.
// setup_s and max_live_bytes are the median round.
func endToEnd(r *report, sp spec, seed int64, dur int64) error {
	var setupS, opsPerS, p50s, p99s, live []float64
	var ops, batches uint64
	for i := 0; i < rounds; i++ {
		b, s, err := setUp(sp, seed)
		if err != nil {
			return err
		}
		p := b.measure(dur/rounds, false)
		if err := b.drain(); err != nil {
			return err
		}
		r.b = b
		setupS = append(setupS, s)
		opsPerS = append(opsPerS, p.opsPerS)
		live = append(live, float64(p.maxLive))
		p50, p99 := p.opQuantiles()
		p50s, p99s = append(p50s, p50), append(p99s, p99)
		r.attempted += p.mallocs
		r.failed += p.fails
		ops += p.ops
		batches += p.batches
	}
	r.add("ops_per_s", "1/s", midMean(opsPerS), ops, "ops")
	r.add("op_p50_ns", "ns", midMean(p50s), batches, "batches")
	r.add("op_p99_ns", "ns", midMean(p99s), batches, "batches")
	r.add("max_live_bytes", "bytes", median(live), rounds, "rounds")
	r.add("setup_s", "s", median(setupS), rounds, "set-ups")
	r.add("malloc_success_ratio", "ratio", ratio(float64(r.attempted-r.failed), float64(r.attempted)), r.attempted, "mallocs")
	return nil
}

// Retry sites per layer, by telemetry site name.
var (
	coreSites = []string{"active-reserve", "active-pop", "active-install", "update-active-credits",
		"partial-reserve", "partial-pop", "partial-slot", "free-fast", "free-slow",
		"partial-list-put", "partial-list-get"}
	poolSites = []string{"desc-alloc", "desc-retire", "pool-migrate"}
	memSites  = []string{"region-pop", "region-push", "region-bump", "region-steal"}
)

func sumSites(m map[string]uint64, sites []string) float64 {
	var n uint64
	for _, s := range sites {
		n += m[s]
	}
	return float64(n)
}

// Shares of the per-layer run's measured time. They sum to 1.
const (
	shareCounts   = 0.27 // untraced pass: path mix, region and descriptor counts, ops/s
	shareSpans    = 0.20 // span pass
	shareRetries  = 0.15 // counter pass (recorder attached, no spans)
	shareTelePair = 0.07 // each of larson and larson-telemetry, for telemetry.ops_ratio
	shareTeleSpan = 0.05 // larson-telemetry span pass, for telemetry.malloc_p50_ns
	shareProbe    = 0.03 // each of the three layer probes
	shareSerial   = 0.10 // the serial baseline on the same load
)

// perLayer measures the per-layer metrics of workload sp.
func perLayer(r *report, sp spec, seed int64, dur int64, out string) error {
	part := func(share float64) int64 { return int64(share * float64(dur)) }
	var passes []*pass
	runP := func(sp spec, share float64) (*pass, error) {
		p, err := runPass(sp, seed, part(share))
		if err == nil {
			passes = append(passes, p)
		}
		return p, err
	}
	counts, err := runP(sp, shareCounts)
	if err != nil {
		return err
	}
	traced := sp
	traced.spans = true
	spanned, err := runP(traced, shareSpans)
	if err != nil {
		return err
	}
	counted := sp
	counted.tele = true
	retried, err := runP(counted, shareRetries)
	if err != nil {
		return err
	}
	bare, err := runP(workloads["larson"], shareTelePair)
	if err != nil {
		return err
	}
	teleSpec := workloads["larson-telemetry"]
	tele, err := runP(teleSpec, shareTelePair)
	if err != nil {
		return err
	}
	teleSpec.spans = true
	teleSpans, err := runP(teleSpec, shareTeleSpan)
	if err != nil {
		return err
	}
	serialSpec := sp
	serialSpec.serial, serialSpec.tele = true, false
	serial, err := runP(serialSpec, shareSerial)
	if err != nil {
		return err
	}
	regionNS, regionN, err := probeRegion(part(shareProbe))
	if err != nil {
		return fmt.Errorf("region probe: %w", err)
	}
	largeNS, largeN, err := probeLarge(part(shareProbe), seed)
	if err != nil {
		return fmt.Errorf("large probe: %w", err)
	}
	descNS, descN, err := probeDesc(part(shareProbe))
	if err != nil {
		return fmt.Errorf("descriptor probe: %w", err)
	}
	r.b = counts.b
	for _, p := range passes {
		r.attempted += p.mallocs
		r.failed += p.fails
	}

	// Counts: the untraced pass.
	ops := float64(counts.ops)
	o := counts.opStats
	mallocs := float64(o.Mallocs + o.LargeMallocs)
	frees := float64(o.Frees + o.LargeFrees)
	frac := [numMallocPaths]float64{
		pathActive:  ratio(float64(o.FromActive), mallocs),
		pathPartial: ratio(float64(o.FromPartial), mallocs),
		pathNewSB:   ratio(float64(o.FromNewSB), mallocs),
		pathLarge:   ratio(float64(o.LargeMallocs), mallocs),
	}
	perKop := func(n uint64) float64 { return ratio(float64(n), ops) * 1000 }
	nm := uint64(mallocs)
	r.add("core.frac_active", "ratio", frac[pathActive], nm, "mallocs")
	r.add("core.frac_partial", "ratio", frac[pathPartial], nm, "mallocs")
	r.add("core.frac_newsb", "ratio", frac[pathNewSB], nm, "mallocs")
	r.add("core.frac_large", "ratio", frac[pathLarge], nm, "mallocs")

	// Spans: the span pass.
	clock := clockCost()
	st := analyze(spanned.tracers, clock)
	nMalloc, nFree := uint64(len(st.malloc)), uint64(len(st.free))
	mallocP50, mallocP99 := quantile(st.malloc, 0.5), quantile(st.malloc, 0.99)
	r.add("core.malloc_p50_ns", "ns", mallocP50, nMalloc, "spans")
	r.add("core.malloc_p99_ns", "ns", mallocP99, nMalloc, "spans")
	r.add("core.free_p50_ns", "ns", quantile(st.free, 0.5), nFree, "spans")
	r.add("core.free_p99_ns", "ns", quantile(st.free, 0.99), nFree, "spans")
	var pathMedian [numMallocPaths]float64
	for path, label := range []string{"active", "partial", "newsb", "large"} {
		xs := st.mallocByPath[path]
		pathMedian[path] = median(xs)
		r.add("core.malloc_"+label+"_ns", "ns", pathMedian[path], uint64(len(xs)), "spans")
	}
	local, remote, nLocal, nRemote := st.freeMedians()
	r.add("core.free_local_ns", "ns", local, nLocal, "spans")
	r.add("core.free_remote_ns", "ns", remote, nRemote, "spans")
	r.add("core.frac_free_remote", "ratio", ratio(float64(nRemote), float64(nFree)), nFree, "spans")

	// Retries: the counter pass.
	rops := float64(retried.ops)
	r.add("core.cas_retries_per_op", "1/op", ratio(sumSites(retried.retries, coreSites), rops), retried.ops, "ops")
	r.add("core.newsb_race_loss_ratio", "ratio", ratio(float64(o.NewSBRaceLoss), float64(o.FromNewSB+o.NewSBRaceLoss)), o.FromNewSB+o.NewSBRaceLoss, "attempts")
	r.add("core.empty_sb_per_kop", "1/kop", perKop(o.EmptySBFreed), counts.ops, "ops")
	spanOps := float64(st.ops) * opsPerSpanOp[sp.kind]
	r.add("core.self_ns_per_op", "ns", ratio(st.selfCore, spanOps), uint64(st.ops), "op spans")
	r.add("core.speedup_over_serial", "x", ratio(counts.opsPerS, serial.opsPerS), counts.ops, "ops")

	r.add("pool.desc_ops_per_kop", "1/kop", perKop(o.FromNewSB+o.EmptySBFreed), counts.ops, "ops")
	r.add("pool.desc_pair_ns", "ns", descNS, descN, "probe batches")
	r.add("pool.fifo_enqueue_ns", "ns", median(st.enqueue), uint64(len(st.enqueue)), "spans")
	r.add("pool.fifo_dequeue_ns", "ns", median(st.dequeue), uint64(len(st.dequeue)), "spans")
	r.add("pool.retries_per_kop", "1/kop", ratio(sumSites(retried.retries, poolSites), rops)*1000, retried.ops, "ops")
	r.add("pool.self_ns_per_op", "ns", ratio(st.selfPool, spanOps), uint64(st.ops), "op spans")

	h := counts.heap
	r.add("mem.region_allocs_per_kop", "1/kop", perKop(h.RegionAllocs), counts.ops, "ops")
	r.add("mem.region_reuse_ratio", "ratio", ratio(float64(h.ReusedRegions), float64(h.RegionAllocs)), h.RegionAllocs, "region allocs")
	r.add("mem.steals_per_kop", "1/kop", perKop(h.Steals), counts.ops, "ops")
	r.add("mem.reserved_bytes", "bytes", float64(counts.reserve), 1, "end of pass")
	r.add("mem.region_pair_ns", "ns", regionNS, regionN, "probe batches")
	r.add("mem.large_pair_ns", "ns", largeNS, largeN, "probe batches")
	r.add("mem.retries_per_kop", "1/kop", ratio(sumSites(retried.retries, memSites), rops)*1000, retried.ops, "ops")

	teleMalloc := analyze(teleSpans.tracers, clock).malloc
	r.add("telemetry.ops_ratio", "ratio", ratio(tele.opsPerS, bare.opsPerS), tele.ops, "ops")
	r.add("telemetry.malloc_p50_ns", "ns", median(teleMalloc), uint64(len(teleMalloc)), "spans")

	// The cost model: path mix (counts) times path medians (spans).
	mallocCost := 0.0
	for path, f := range frac {
		c := pathMedian[path]
		if len(st.mallocByPath[path]) == 0 {
			c = mallocP50
		}
		mallocCost += f * c
	}
	freeCost := 0.0
	for _, xs := range st.freeByPath {
		freeCost += ratio(float64(len(xs)), float64(nFree)) * median(xs)
	}
	perOp := func(n float64) float64 { return ratio(n, ops) }
	predicted := perOp(mallocs)*mallocCost + perOp(frees)*freeCost
	if sp.kind == kindProdcons {
		// Producer and consumer run in parallel; the slower stage sets
		// the time per task.
		producer := perOp(mallocs)*mallocCost + median(st.enqueue)
		consumer := perOp(frees)*freeCost + median(st.dequeue)
		predicted = max(producer, consumer)
	}
	opP50, _ := counts.opQuantiles()
	r.add("model.predicted_ns_per_op", "ns", predicted, uint64(st.spans), "spans")
	r.add("model.residual_pct", "%", 100*math.Abs(ratio(opP50-predicted, opP50)), counts.batches, "batches")

	r.add("trace.overhead_pct", "%", 100*(1-ratio(spanned.opsPerS, counts.opsPerS)), spanned.ops, "ops")
	r.add("trace.clock_ns", "ns", st.clock, clockPairs, "clock pairs")
	r.add("trace.spans", "count", float64(st.spans), uint64(st.spans), "spans")
	r.add("bench.self_ns_per_op", "ns", ratio(st.selfBench, spanOps), uint64(st.ops), "op spans")
	r.add("baseline.serial_ops_per_s", "1/s", serial.opsPerS, serial.ops, "ops")

	if out != "" {
		path := filepath.Join(out, "spans-"+sp.name+".tsv")
		if err := writeSpans(path, spanned.tracers); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		r.spansFile = path
	}
	return nil
}

// report collects the metrics of one run in the order they print.
type report struct {
	b                 *bench // the measured bench, for the provenance record
	metrics           []metric
	attempted, failed uint64
	spansFile         string
}

type metric struct {
	name, unit, what string
	value            float64
	samples          uint64
}

func (r *report) add(name, unit string, v float64, samples uint64, what string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, samples: samples, what: what})
}

// print writes the provenance record, one line per metric, and the
// result object as the last line.
func (r *report) print(prov map[string]any) {
	pj, _ := json.Marshal(prov) // plain maps of strings and numbers always marshal
	fmt.Printf("provenance %s\n", pj)
	if r.spansFile != "" {
		fmt.Printf("spans written to %s\n", r.spansFile)
	}
	for _, m := range r.metrics {
		fmt.Printf("%-28s %16.6g %-6s n=%d %s\n", m.name, m.value, m.unit, m.samples, m.what)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range r.metrics {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	rj, _ := json.Marshal(res) // finite numbers only: every ratio guards its base
	fmt.Println(string(rj))
}

// provenance records the host, the seed, the allocator's full
// configuration and the load parameters.
func provenance(b *bench, seed int64, seconds float64, traceMode int, commit string) map[string]any {
	c := b.core
	cfg := map[string]any{
		"constructor":      "alloc.NewLockFree(alloc.Options{Processors: 2}), every other option zero (library default)",
		"allocator":        c.Name(),
		"processors":       c.Processors(),
		"desc_stripes":     c.DescStripes(),
		"desc_algo":        c.DescAlgo().String(),
		"arenas":           c.Heap().Arenas(),
		"segment_words":    c.Heap().SegmentWords(),
		"max_region_words": c.Heap().MaxRegionWords(),
		"magazine_size":    0,
		"telemetry":        b.rec != nil,
	}
	if b.rec != nil {
		cfg["telemetry_config"] = b.rec.Config()
	}
	sp := b.spec
	load := map[string]any{
		"workers": workers, "batch_ops": batchOps[sp.kind], "probe_ops": probeOps, "closed_loop": true,
		"larson_slots": larsonSlots, "larson_bytes": []int{larsonMin, larsonMax},
		"churn_batch": churnBatch, "churn_bytes": []int{churnMin, churnMax},
		"prodcons_queue_cap": pcQueueCap, "prodcons_db": pcDBSize, "prodcons_work": 0,
		"warmup_ops": warmOps[sp.kind], "rounds": rounds,
	}
	keys := make([]string, 0, len(workloads))
	for k := range workloads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return map[string]any{
		"host": map[string]any{
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
			"commit": commit,
		},
		"workload": sp.name, "workloads": keys, "seed": seed, "seconds": seconds, "trace": traceMode,
		"started":   epoch.UTC().Format(time.RFC3339),
		"allocator": cfg, "load": load,
	}
}
