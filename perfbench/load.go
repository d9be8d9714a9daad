package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/alloc"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/telemetry"
)

// Load parameters. Every workload is a closed loop of two worker
// goroutines on two processors: a worker issues its next request only
// when the previous one has returned.
const (
	workers  = 2
	probeOps = 128 // pairs per timed batch of a layer probe

	larsonSlots = 1024 // live blocks per worker
	larsonMin   = 16   // bytes
	larsonMax   = 80

	churnBatch = 64 // blocks allocated, then freed in shuffled order, per cycle
	churnMin   = 1 << 10
	churnMax   = 1 << 12

	pcProducer  = 0    // worker id of the producer; worker 1 consumes
	pcQueueCap  = 1024 // a producer finding this many tasks queued waits for pcQueueCap/2
	pcResume    = 64   // a consumer finding the queue empty waits for this many tasks
	pcDBSize    = 4096 // database entries (application memory, not allocator memory)
	pcTaskWords = 4    // stamp, index-block pointer, index count, stamp
	nodeBytes   = 16   // queue node: value word + (index, tag) link word

	// stampShift splits a stamp into worker id (high bits) and the
	// worker's allocation sequence number (low bits).
	stampShift = 48
)

type kind int

const (
	kindLarson kind = iota
	kindChurn
	kindProdcons
)

// spec selects a load and how the allocator under it is built.
type spec struct {
	name   string
	kind   kind
	tele   bool // attach a telemetry recorder (core.NewRecorder, library defaults)
	serial bool // drive the serial global-lock baseline instead of the lock-free allocator
	spans  bool // record sampled spans around calls into core and pool
}

// workloads are the benchmark's named workloads.
var workloads = map[string]spec{
	"larson":           {name: "larson", kind: kindLarson},
	"churn":            {name: "churn", kind: kindChurn},
	"prodcons":         {name: "prodcons", kind: kindProdcons},
	"larson-telemetry": {name: "larson-telemetry", kind: kindLarson, tele: true},
}

// warmOps is the per-worker op count of the warm-up that ends set-up
// (tasks for prodcons). A fixed count, not a fixed time, so setup_s
// moves when the allocator gets slower.
var warmOps = map[kind]uint64{
	kindLarson:   1 << 18,
	kindChurn:    1 << 16,
	kindProdcons: 1 << 15,
}

// batchOps is the number of ops (prodcons: tasks) per timed batch;
// op_p50_ns and op_p99_ns are batch time / batchOps. Batches are timed
// with the cycle counter, so a larson batch can be short. At 128
// larson ops (about 20 us) the 99th percentile followed the host's
// interrupts: over half-second windows on a 2-vCPU Xeon VM it ranged
// 260-630 ns, against 250-350 ns at 16 ops (about 3 us), where it is
// mostly the allocator's own slow paths.
var batchOps = map[kind]uint64{
	kindLarson:   16,
	kindChurn:    2 * churnBatch,
	kindProdcons: 128,
}

// block is a live allocation with the stamp written into its first and
// last payload words.
type block struct {
	p     mem.Ptr
	last  uint64 // offset of the last stamped payload word
	stamp uint64 // worker id << stampShift | sequence number
}

// bench is one allocator under one load: the allocator, its two
// workers and the state they share.
type bench struct {
	spec
	core *core.Allocator // nil on the serial baseline
	heap *mem.Heap
	rec  *telemetry.Recorder
	ws   [workers]*worker

	// prodcons: the queue whose nodes come from the allocator, the
	// database tasks index into, and the end-of-phase handshake.
	q        *queue
	db       []uint64
	target   atomic.Uint64 // tasks produced when the producer stopped
	prodDone atomic.Bool
}

// queue is the prodcons FIFO padded to exactly 256 bytes, so the
// allocation comes from Go's 256-byte size class: 256-byte aligned, the
// queue's head, tail and size words on one cache line of their own in
// every run, rather than straddling lines or sharing one with other
// data at an offset that changes from run to run.
type queue struct {
	pool.FIFO[*worker]
	_ [256 - unsafe.Sizeof(pool.FIFO[*worker]{})]byte
}

// worker is one closed-loop client with its own allocator handle.
type worker struct {
	b    *bench
	id   uint64
	th   alloc.Thread
	ct   *core.Thread // nil on the serial baseline
	heap *mem.Heap
	rng  rng

	seq     uint64 // stamps issued
	mallocs uint64 // mallocs attempted, queue nodes included
	fails   uint64 // mallocs that returned an error
	bad     error  // first failed output check

	slots []block // larson: live slots
	cycle []block // churn: the blocks of the current cycle

	tasks uint64    // prodcons: tasks produced (producer) or consumed (consumer)
	sum   uint64    // prodcons: checksum of task ids produced or consumed
	hist  [8]uint64 // prodcons: consumer's histogram of database values

	tr         *tracer // non-nil in the span pass
	opSeq      uint64  // ops (churn: cycles) issued, for 1-in-N span sampling
	nodeParent int32   // span of the traced FIFO call in progress, -1 if none

	lat        []uint32 // per-batch durations of the timed phase, in ticks
	ops        uint64   // ops completed in the last phase
	start, end int64    // the last phase's first and last clock reads
}

// newBench constructs the allocator and its workers. It is the first
// step of set-up.
func newBench(sp spec, seed int64) (*bench, error) {
	opt := alloc.Options{Processors: workers}
	b := &bench{spec: sp}
	var a alloc.Allocator
	if sp.serial {
		a = alloc.NewSerial(opt)
	} else {
		if sp.tele {
			b.rec = core.NewRecorder(telemetry.Config{})
			opt.LockFree.Telemetry = b.rec
		}
		a = alloc.NewLockFree(opt)
		b.core = a.(alloc.CoreAccessor).Core()
	}
	b.heap = a.Heap()
	for i := range b.ws {
		th := a.NewThread()
		w := &worker{b: b, id: uint64(i), th: th, heap: b.heap, rng: newRNG(seed, uint64(i)+1), nodeParent: -1}
		w.ct, _ = th.(*core.Thread)
		b.ws[i] = w
	}
	if sp.kind == kindProdcons {
		r := newRNG(seed, 0)
		b.db = make([]uint64, pcDBSize)
		for i := range b.db {
			b.db[i] = r.next()
		}
		b.q = new(queue)
		if err := b.q.Init(b.ws[pcProducer]); err != nil {
			return nil, fmt.Errorf("queue init: %w", err)
		}
	}
	return b, nil
}

// phase bounds one run of the workers: a warm-up of ops per worker, or
// a timed phase ending at the first batch boundary past until.
type phase struct {
	ops    uint64
	until  int64 // deadline, in ticks
	record bool  // keep per-batch durations, in ticks
}

// runPhase runs both workers through ph and waits for them.
func (b *bench) runPhase(ph phase) {
	b.prodDone.Store(false)
	var wg sync.WaitGroup
	for _, w := range b.ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(ph)
		}(w)
	}
	wg.Wait()
}

// prefill builds the worker's initial live set. The caller prefills
// the workers one after the other, so which superblocks and
// descriptors each worker starts with does not depend on how two
// concurrent prefills happened to interleave.
func (w *worker) prefill() {
	switch w.b.kind {
	case kindLarson:
		w.slots = make([]block, larsonSlots)
		for i := range w.slots {
			w.slots[i] = w.malloc(larsonMin+w.rng.below(larsonMax-larsonMin+1), -1)
		}
	case kindChurn:
		w.cycle = make([]block, churnBatch)
	}
}

func (w *worker) run(ph phase) {
	if w.b.kind == kindProdcons {
		if w.id == pcProducer {
			w.produceLoop(ph)
		} else {
			w.consumeLoop()
		}
		return
	}
	n := batchOps[w.b.kind]
	var done uint64
	w.start = nowNS()
	t0 := ticks()
	for {
		if w.b.kind == kindLarson {
			for k := uint64(0); k < n; k++ {
				w.larsonOp()
			}
		} else {
			for k := uint64(0); k < n/churnBatch; k++ {
				w.churnCycle()
			}
		}
		t1 := ticks()
		if ph.record {
			w.lat = append(w.lat, clamp32(t1-t0))
		}
		done += n
		t0 = t1
		if ph.ops > 0 && done >= ph.ops || ph.ops == 0 && t1 >= ph.until {
			break
		}
	}
	w.end, w.ops = nowNS(), done
}

func clamp32(d int64) uint32 { return uint32(min(max(d, 0), 1<<32-1)) }

// sampled reports whether the op numbered n is traced (1 in
// tracer.every, and only while the buffer has room for its spans).
func (w *worker) sampled(n uint64, spans int) bool {
	return w.tr != nil && n%w.tr.every == 0 && w.tr.room(spans)
}

// larsonOp frees the block in a random slot and allocates a random
// 16-80 B block in its place (Larson & Krishnan's server simulation).
func (w *worker) larsonOp() {
	w.opSeq++
	root := int32(-1)
	if w.sampled(w.opSeq, 3) {
		root = w.tr.begin(spanOp, w.opSeq, -1)
	}
	i := w.rng.below(larsonSlots)
	if b := w.slots[i]; b.p != 0 {
		w.free(b, root)
	}
	w.slots[i] = w.malloc(larsonMin+w.rng.below(larsonMax-larsonMin+1), root)
	if root >= 0 {
		w.tr.end(root)
	}
}

// churnCycle allocates churnBatch blocks of log-uniform 1-4 KiB and
// frees them in shuffled order: churnBatch ops of one malloc and one
// free each.
func (w *worker) churnCycle() {
	w.opSeq++
	root := int32(-1)
	if w.sampled(w.opSeq, 2*churnBatch+1) {
		root = w.tr.begin(spanOp, w.opSeq, -1)
	}
	for i := range w.cycle {
		w.cycle[i] = w.malloc(churnSize(&w.rng), root)
	}
	for i := len(w.cycle) - 1; i > 0; i-- {
		j := w.rng.below(uint64(i) + 1)
		w.cycle[i], w.cycle[j] = w.cycle[j], w.cycle[i]
	}
	for _, b := range w.cycle {
		if b.p != 0 {
			w.free(b, root)
		}
	}
	if root >= 0 {
		w.tr.end(root)
	}
}

// churnSize draws a log-uniform size in [churnMin, churnMax).
func churnSize(r *rng) uint64 {
	return uint64(churnMin * math.Exp2(r.unit()*2))
}

// produceLoop is the prodcons producer: it builds and enqueues tasks
// until the phase ends, waiting while the queue is full, and times each
// batch of batchOps tasks. The producer is the slower stage (three
// mallocs and an enqueue against three frees and a dequeue), so its
// batches measure the time per completed task without the consumer's
// waits for an empty queue to refill.
func (w *worker) produceLoop(ph phase) {
	n := batchOps[kindProdcons]
	var done uint64
	w.start = nowNS()
	t0 := ticks()
	for ph.ops == 0 || done < ph.ops {
		if w.b.q.Len() >= pcQueueCap {
			for w.b.q.Len() > pcQueueCap/2 {
				runtime.Gosched()
			}
		}
		if !w.produce() {
			continue
		}
		if done++; done%n == 0 {
			t1 := ticks()
			if ph.record {
				w.lat = append(w.lat, clamp32(t1-t0))
			}
			t0 = t1
			if ph.ops == 0 && t1 >= ph.until {
				break
			}
		}
	}
	w.end, w.ops = nowNS(), done
	w.b.target.Store(w.tasks)
	w.b.prodDone.Store(true)
}

// produce builds one task: an index block of 10-20 database indexes,
// a task block pointing at it, and a queue node (inside Enqueue).
func (w *worker) produce() bool {
	id := w.tasks + 1
	root := int32(-1)
	if w.sampled(id, 5) {
		root = w.tr.begin(spanOp, id, -1)
	}
	ok := w.produceTask(id, root)
	if root >= 0 {
		w.tr.end(root)
	}
	return ok
}

func (w *worker) produceTask(id uint64, root int32) bool {
	n := 10 + w.rng.below(11)
	pairs := (n + 1) / 2
	ib := w.malloc((pairs+2)*mem.WordBytes, root)
	if ib.p == 0 {
		return false
	}
	for i := uint64(1); i <= pairs; i++ {
		w.heap.Set(ib.p.Add(i), w.rng.below(pcDBSize)<<32|w.rng.below(pcDBSize))
	}
	tb := w.malloc(pcTaskWords*mem.WordBytes, root)
	if tb.p == 0 {
		w.free(ib, root)
		w.seq--
		return false
	}
	w.heap.Set(tb.p.Add(1), uint64(ib.p))
	w.heap.Set(tb.p.Add(2), n)
	var err error
	if root >= 0 {
		s := w.tr.begin(spanEnqueue, 0, root)
		w.nodeParent = s
		err = w.b.q.Enqueue(w, uint64(tb.p))
		w.tr.end(s)
		w.nodeParent = -1
	} else {
		err = w.b.q.Enqueue(w, uint64(tb.p))
	}
	if err != nil {
		w.free(tb, root)
		w.free(ib, root)
		w.seq -= 2
		return false
	}
	w.tasks, w.sum = id, w.sum+id
	return true
}

// consumeLoop is the prodcons consumer: it completes tasks until the
// producer has stopped and every task it produced is consumed.
func (w *worker) consumeLoop() {
	var done uint64
	w.start = nowNS()
	for {
		if w.consume() {
			done++
			continue
		}
		if w.b.prodDone.Load() && w.tasks == w.b.target.Load() {
			break
		}
		for w.b.q.Len() < pcResume && !w.b.prodDone.Load() {
			runtime.Gosched()
		}
	}
	w.end, w.ops = nowNS(), done
}

// consume dequeues one task, checks it is the next task in FIFO order
// with intact stamps, builds its histogram and frees its blocks. All
// three frees (queue node, index block, task block) release blocks the
// producer allocated.
func (w *worker) consume() bool {
	id := w.tasks + 1
	root, dq := int32(-1), int32(-1)
	if w.sampled(id, 5) {
		root = w.tr.begin(spanOp, id, -1)
		dq = w.tr.begin(spanDequeue, 0, root)
		w.nodeParent = dq
	}
	v, ok := w.b.q.Dequeue(w)
	if root >= 0 {
		w.tr.end(dq)
		w.nodeParent = -1
		if !ok {
			w.tr.truncate(root)
		}
	}
	if !ok {
		return false
	}
	tb := block{p: mem.Ptr(v), last: pcTaskWords - 1, stamp: pcProducer<<stampShift | 2*id}
	ib := block{p: mem.Ptr(w.heap.Get(tb.p.Add(1))), stamp: pcProducer<<stampShift | (2*id - 1)}
	n := w.heap.Get(tb.p.Add(2))
	if n < 10 || n > 20 {
		w.fail(fmt.Errorf("task %d: index count %d out of range", id, n))
		n = 0
	}
	pairs := (n + 1) / 2
	ib.last = pairs + 1
	for i := uint64(0); i < n; i++ {
		word := w.heap.Get(ib.p.Add(1 + i/2))
		idx := word >> (32 * (i % 2)) & (1<<32 - 1)
		if idx >= pcDBSize {
			w.fail(fmt.Errorf("task %d: database index %d out of range", id, idx))
			break
		}
		w.hist[w.b.db[idx]%uint64(len(w.hist))]++
	}
	w.free(ib, root)
	w.free(tb, root)
	w.tasks, w.sum = id, w.sum+id
	if root >= 0 {
		w.tr.end(root)
	}
	return true
}

// malloc allocates size bytes and stamps the block's first and last
// payload words; parent >= 0 records a span under that span. Payload
// access is plain: a block is private to the worker holding it, and a
// prodcons task passes to the consumer through the queue's CAS, which
// orders the producer's writes before the consumer's reads.
func (w *worker) malloc(size uint64, parent int32) block {
	p, err := w.rawMalloc(size, parent)
	if err != nil {
		return block{}
	}
	w.seq++
	b := block{p: p, last: (size+mem.WordBytes-1)/mem.WordBytes - 1, stamp: w.id<<stampShift | w.seq}
	w.heap.Set(b.p, b.stamp)
	w.heap.Set(b.p.Add(b.last), b.stamp)
	return b
}

// free checks the block's stamps (an overlapping live block would have
// overwritten one) and frees it.
func (w *worker) free(b block, parent int32) {
	if got, last := w.heap.Get(b.p), w.heap.Get(b.p.Add(b.last)); got != b.stamp || last != b.stamp {
		w.fail(fmt.Errorf("block %v: stamps %#x/%#x, want %#x", b.p, got, last, b.stamp))
	}
	w.rawFree(b.p, b.stamp>>stampShift != w.id, parent)
}

func (w *worker) rawMalloc(size uint64, parent int32) (mem.Ptr, error) {
	w.mallocs++
	if parent < 0 {
		p, err := w.th.Malloc(size)
		if err != nil {
			w.fails++
		}
		return p, err
	}
	before := w.ct.OpStats()
	s := w.tr.begin(spanMalloc, 0, parent)
	p, err := w.th.Malloc(size)
	w.tr.end(s)
	w.tr.cur[s].path = mallocPath(before, w.ct.OpStats())
	if err != nil {
		w.fails++
	}
	return p, err
}

func (w *worker) rawFree(p mem.Ptr, remote bool, parent int32) {
	if parent < 0 {
		w.th.Free(p)
		return
	}
	path := uint8(0)
	if remote {
		path |= freeRemote
	}
	if w.b.core.BlockIsLarge(p) {
		path |= freeLarge
	}
	s := w.tr.begin(spanFree, 0, parent)
	w.th.Free(p)
	w.tr.end(s)
	w.tr.cur[s].path = path
}

// mallocPath names the path that served a malloc from which of the
// thread's OpStats counters moved across the call.
func mallocPath(before, after core.OpStats) uint8 {
	switch {
	case after.FromActive != before.FromActive:
		return pathActive
	case after.FromPartial != before.FromPartial:
		return pathPartial
	case after.FromNewSB != before.FromNewSB:
		return pathNewSB
	case after.LargeMallocs != before.LargeMallocs:
		return pathLarge
	}
	return pathUnknown
}

func (w *worker) fail(err error) {
	if w.bad == nil {
		w.bad = err
	}
}

// The queue's node backend (pool.Backend): nodes are 16-byte blocks
// from the allocator under test, allocated by the enqueuer and freed by
// the dequeuer, as in the paper's producer-consumer benchmark.

func (w *worker) AllocNode() (uint64, error) {
	p, err := w.rawMalloc(nodeBytes, w.nodeParent)
	return uint64(p), err
}
func (w *worker) FreeNode(ref uint64) {
	w.rawFree(mem.Ptr(ref), w.id != pcProducer, w.nodeParent)
}
func (w *worker) LoadValue(ref uint64) uint64     { return w.heap.Load(mem.Ptr(ref)) }
func (w *worker) StoreValue(ref uint64, v uint64) { w.heap.Store(mem.Ptr(ref), v) }
func (w *worker) LoadLink(ref uint64) uint64      { return w.heap.Load(mem.Ptr(ref).Add(1)) }
func (w *worker) StoreLink(ref uint64, v uint64)  { w.heap.Store(mem.Ptr(ref).Add(1), v) }
func (w *worker) CASLink(ref uint64, old, new uint64) bool {
	return w.heap.CAS(mem.Ptr(ref).Add(1), old, new)
}

// drain frees every block the workers still hold, then checks the
// outputs: no failed stamp, prodcons counts and checksums equal, and
// the allocator's invariants with exactly the queue's dummy node live.
func (b *bench) drain() error {
	for _, w := range b.ws {
		for _, s := range w.slots {
			if s.p != 0 {
				w.free(s, -1)
			}
		}
		w.slots = nil
		if w.bad != nil {
			return fmt.Errorf("%s worker %d: %w", b.name, w.id, w.bad)
		}
	}
	live := int64(0)
	if b.kind == kindProdcons {
		p, c := b.ws[pcProducer], b.ws[1-pcProducer]
		if p.tasks != c.tasks || p.sum != c.sum {
			return fmt.Errorf("prodcons: produced %d tasks (checksum %d), consumed %d (checksum %d)",
				p.tasks, p.sum, c.tasks, c.sum)
		}
		live = 1 // the queue's dummy node
	}
	if b.core != nil {
		if err := b.core.CheckInvariants(live); err != nil {
			return fmt.Errorf("%s: allocator invariants: %w", b.name, err)
		}
	}
	return nil
}
