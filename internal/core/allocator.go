// Package core implements the completely lock-free dynamic memory
// allocator of Michael, "Scalable Lock-Free Dynamic Memory Allocation"
// (PLDI 2004), over the simulated address space of internal/mem.
//
// The structure follows the paper exactly (§3): the heap is composed of
// 16 KiB superblocks divided into equal-size blocks; superblocks are
// distributed among size classes; each size class has one processor
// heap per processor; a processor heap holds at most one ACTIVE
// superblock (through its Active word) and one most-recently-used
// PARTIAL superblock (through its Partial slot); each size class keeps
// a lock-free FIFO list of further partial superblocks. Large blocks
// bypass all of this and go straight to the OS layer.
//
// Every operation is lock-free: a thread delayed (or stopped forever —
// see internal/sched's kill-tolerance tests) at any point between
// atomic steps never prevents other threads from allocating and
// freeing.
package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/partial"
	"repro/internal/pool"
	"repro/internal/shadow"
	"repro/internal/sizeclass"
	"repro/internal/telemetry"
)

// Config parameterizes the allocator. The zero value selects paper
// defaults.
type Config struct {
	// Processors is the number of processor heaps per size class
	// (the paper sizes this proportionally to the machine's
	// processors). 0 selects GOMAXPROCS at construction time via
	// DefaultProcessors.
	Processors int

	// DescStripes is the number of freelist stripes in the descriptor
	// pool (internal/pool): each stripe is an independent DescAvail
	// head, threads pick one by id, and dry stripes migrate whole
	// chains from siblings. 0 selects one stripe per processor; 1
	// reproduces the paper's single DescAvail word.
	DescStripes int

	// DescAlgo selects the descriptor pool's recycling backend: the
	// Figure-7 tagged freelist (pool.AlgoFreelist, the zero value) or
	// the Blelloch–Wei constant-time batch scheme (pool.AlgoConstTime)
	// — see internal/pool and DESIGN.md.
	DescAlgo pool.Algo

	// MaxCredits caps blocks reserved through the Active word at once
	// (the paper's MAXCREDITS, default and maximum 64). Setting 1
	// disables batched credits: every malloc from the active
	// superblock takes the last credit — the credit-free ablation.
	MaxCredits int

	// PartialLIFO selects the Treiber-stack partial lists instead of
	// the preferred FIFO lists (§3.2.6 ablation).
	PartialLIFO bool

	// KeepNewSBOnRaceLoss selects the alternative policy in
	// MallocFromNewSB (Figure 4 line 16 comment): when losing the race
	// to install a new active superblock, take a block from the new
	// superblock and keep it as PARTIAL instead of deallocating it.
	// The paper prefers deallocation to limit external fragmentation.
	KeepNewSBOnRaceLoss bool

	// NoPartialSlot disables the per-heap most-recently-used Partial
	// slot, sending all partial superblocks straight to the size-class
	// list (§3.2.6 ablation).
	NoPartialSlot bool

	// PartialSlots sets the number of most-recently-used Partial slots
	// per processor heap (the paper's "multiple slots can be used if
	// desired", §3.2.6). 0 or 1 selects the paper's default single
	// slot. Ignored when NoPartialSlot is set.
	PartialSlots int

	// MagazineSize enables the thread-local magazine layer: each
	// Thread keeps up to MagazineSize blocks per size class in a
	// private cache, refilled and flushed in batches so the shared
	// Active/anchor words are touched once per batch instead of once
	// per operation (see magazine.go and DESIGN.md). 0 (the default)
	// disables the layer, preserving the paper-faithful hot paths.
	// Memory blowup is bounded by MagazineSize × classes × threads
	// blocks held outside the shared structures; Thread.Unregister
	// returns them.
	MagazineSize int

	// Adapt makes the tuning knobs runtime-mutable: magazine capacities
	// (per size class, seeded from MagazineSize) and per-thread
	// descriptor-stripe and arena bindings can be changed while the
	// allocator runs, via SetMagazineCap / RebindStripe / RebindArena —
	// the surface internal/adapt's controller drives. Threads notice a
	// policy change with one epoch comparison at the top of malloc and
	// apply it between operations, never mid-CAS (see policy.go). When
	// false (the default) the policy layer is absent and the hot paths
	// carry only a single never-taken nil-check branch.
	Adapt bool

	// Hyperblocks enables the §3.2.5 extension: superblocks are
	// allocated in 1 MiB hyperblock batches (reducing OS calls and
	// leaving unused superblocks unwritten) and fully-free hyperblocks
	// can be returned to the OS via Scavenge.
	Hyperblocks bool

	// Heap supplies an existing simulated address space; if nil a new
	// one is created with mem.Config defaults.
	Heap *mem.Heap

	// HeapConfig configures the created heap when Heap is nil.
	HeapConfig mem.Config

	// Telemetry, when non-nil, attaches the lock-free observability
	// layer: CAS-retry counters at every contention site, per-class
	// malloc/free latency histograms, and the flight recorder. Create
	// one with NewRecorder so histogram rows match the size-class
	// table. When nil (the default), the only cost is a nil check per
	// instrumented branch.
	Telemetry *telemetry.Recorder

	// Offload configures the SpeedMalloc-style allocation-core offload
	// mode (internal/offload): Cores worker-serving allocator
	// goroutines and the request batch size. The core itself only
	// carries the knobs — it never reads them on any path — so the
	// zero value (offload off) adds nothing to malloc/free; the
	// internal/offload engine and the alloc wrapper consume them.
	Offload OffloadConfig

	// Shadow, when non-nil, mirrors every Malloc/Free into the
	// shadow-heap differential oracle (internal/shadow): a debugging
	// layer that detects double frees, overlapping live blocks, prefix
	// clobbering, and — via poison-on-free — writes after free. The
	// oracle is bound to this allocator's heap by New. Without the
	// `shadowheap` build tag shadow.New returns nil, so the field stays
	// nil and the mirroring costs one nil-check per operation.
	Shadow *shadow.Oracle
}

// OffloadConfig parameterizes the allocation-core offload mode (see
// Config.Offload and internal/offload). Cores <= 0 disables the mode.
type OffloadConfig struct {
	// Cores is the number of dedicated allocator goroutines serving
	// batched malloc/free requests from all workers.
	Cores int
	// Batch is the refill and free-batch size (blocks per request).
	// 0 selects the offload engine's default.
	Batch int
}

// NewRecorder creates a telemetry recorder sized for this allocator's
// size-class table (histogram rows per class plus one for large
// blocks). Pass the result in Config.Telemetry.
func NewRecorder(cfg telemetry.Config) *telemetry.Recorder {
	cfg.Classes = sizeclass.NumClasses()
	return telemetry.New(cfg)
}

// DefaultProcessors is used when Config.Processors is 0; it is a
// variable so tests can pin it.
var DefaultProcessors = defaultProcessors

// Allocator is the lock-free allocator. Obtain per-goroutine Thread
// handles with Thread; all methods on Allocator and Thread are safe for
// concurrent use and lock-free (Thread registration uses a mutex once
// per goroutine, outside the malloc/free paths).
type Allocator struct {
	// Hot fields first, ahead of the by-value cfg: malloc/free resolve
	// heap, classes, and descs on every operation, and keeping them at
	// fixed low offsets means growing Config (a debugging-layer field,
	// say) cannot push them across a cache-line boundary.
	heap  *mem.Heap
	hyper *mem.Hyper          // non-nil when cfg.Hyperblocks
	tele  *telemetry.Recorder // non-nil when cfg.Telemetry
	procs uint64

	maxCredits uint64

	classes []scState
	descs   *descPool

	cfg Config

	// pol is the runtime-mutable policy table; non-nil only when
	// cfg.Adapt. Cold: threads read it through their own threadPolicy
	// epoch, not on the hit paths.
	pol *policyTable

	mu      sync.Mutex
	threads []*Thread

	nextThread atomic.Uint64

	// shadow is the attached differential oracle; non-nil only when
	// cfg.Shadow is set (shadowheap builds). Kept at the end of the
	// struct so the unshadowed build's field offsets — and so its hot
	// paths — are byte-identical with or without the layer compiled in.
	shadow *shadow.Oracle

	// The struct fills the 256-byte allocation size class exactly
	// (Config.Offload spent the last of the former padding budget):
	// 256-byte objects are always 64-byte aligned, so the hot fields
	// above land on the same cache lines in every process, rather than
	// at whatever phase a 208- or 224-byte slot happens to start at.
	// Growing the struct further requires shrinking or out-lining a
	// cold field (policy.go pins the total with compile-time
	// assertions).
}

// scState is the per-size-class state (paper's sizeclass structure).
type scState struct {
	class   sizeclass.Class
	heaps   []ProcHeap
	partial partial.List
}

// ProcHeap is a processor heap (paper Figure 3). Padded so distinct
// heaps do not share cache lines.
type ProcHeap struct {
	// Active is the packed (descriptor index, credits) word; zero is
	// NULL.
	Active atomic.Uint64
	// Partial is the most-recently-used partial superblock's
	// descriptor index; zero is NULL.
	Partial atomic.Uint64

	// extraPartial holds additional MRU slots when Config.PartialSlots
	// exceeds one (§3.2.6: "multiple slots can be used if desired").
	extraPartial []atomic.Uint64

	sc *scState
	id uint64 // global heap id: class*procs + proc

	_ [3]uint64 // pad to 64 bytes
}

// New constructs an allocator. The static structures for all size
// classes and processor heaps are allocated and initialized here (the
// paper does this lazily on the first malloc, also without locking).
func New(cfg Config) *Allocator {
	if cfg.Processors <= 0 {
		cfg.Processors = DefaultProcessors()
	}
	if cfg.MaxCredits <= 0 || cfg.MaxCredits > atomicx.MaxCredits {
		cfg.MaxCredits = atomicx.MaxCredits
	}
	if cfg.MagazineSize < 0 {
		cfg.MagazineSize = 0
	}
	if cfg.DescStripes <= 0 {
		// Stripe the descriptor freelist like the processor heaps and
		// region arenas: one DescAvail head per processor.
		cfg.DescStripes = cfg.Processors
	}
	h := cfg.Heap
	if h == nil {
		if cfg.HeapConfig.Arenas == 0 {
			// Shard the OS layer like the processor heaps above it: one
			// region arena per processor (Config.HeapConfig.Arenas
			// overrides; callers wanting the unsharded layout pass 1).
			cfg.HeapConfig.Arenas = cfg.Processors
		}
		h = mem.NewHeap(cfg.HeapConfig)
	}
	a := &Allocator{
		heap:       h,
		cfg:        cfg,
		shadow:     cfg.Shadow,
		procs:      uint64(cfg.Processors),
		maxCredits: uint64(cfg.MaxCredits),
		classes:    make([]scState, sizeclass.NumClasses()),
		descs:      newDescPool(cfg.DescStripes, cfg.DescAlgo),
	}
	if cfg.Adapt {
		a.pol = newPolicyTable(cfg.MagazineSize, sizeclass.NumClasses())
	}
	if a.shadow != nil {
		// Bind the oracle to this allocator's address space and install
		// the region-recycle hook that invalidates stale poison.
		a.shadow.AttachHeap(h)
	}
	if cfg.Hyperblocks {
		// 64 superblocks per hyperblock = 1 MiB batches (§3.2.5).
		a.hyper = mem.NewHyper(h, sizeclass.SuperblockWords, 64)
	}
	// Telemetry wiring: thread-context sites record through per-thread
	// shards (attached in Thread); the thread-less structures — region
	// free stacks, descriptor freelist, partial-list pools — share the
	// recorder's stripes.
	var stripes *telemetry.Stripes
	if cfg.Telemetry != nil {
		a.tele = cfg.Telemetry
		stripes = cfg.Telemetry.Stripes()
		a.descs.SetTelemetry(stripes)
		h.SetTelemetry(stripes)
	}
	for i := range a.classes {
		sc := &a.classes[i]
		sc.class = sizeclass.ByIndex(i)
		sc.heaps = make([]ProcHeap, cfg.Processors)
		if cfg.PartialLIFO {
			sc.partial = partial.NewLIFO()
		} else {
			sc.partial = partial.NewFIFO()
		}
		if stripes != nil {
			sc.partial.Instrument(stripes)
		}
		for p := range sc.heaps {
			sc.heaps[p].sc = sc
			sc.heaps[p].id = uint64(i)*a.procs + uint64(p)
			if cfg.PartialSlots > 1 {
				sc.heaps[p].extraPartial = make([]atomic.Uint64, cfg.PartialSlots-1)
			}
		}
	}
	return a
}

// Name identifies the allocator in benchmark output.
func (a *Allocator) Name() string { return "lockfree" }

// Heap returns the simulated address space backing the allocator.
func (a *Allocator) Heap() *mem.Heap { return a.heap }

// Processors returns the number of processor heaps per size class.
func (a *Allocator) Processors() int { return int(a.procs) }

// procHeap maps a global heap id back to its ProcHeap.
func (a *Allocator) procHeap(id uint64) *ProcHeap {
	sc := &a.classes[id/a.procs]
	return &sc.heaps[id%a.procs]
}

// desc returns the descriptor with the given index.
func (a *Allocator) desc(idx uint64) *Descriptor { return a.descs.Get(idx) }

// stripe is the descriptor-pool stripe this thread allocates from and
// retires to. It defaults to the thread id (a pure function, like
// processor-heap selection) but is rebindable through the policy layer;
// the pool reduces any non-negative id modulo its stripe count, and
// cross-stripe alloc/retire mixing is harmless, so a rebind needs no
// synchronization beyond happening between operations.
func (t *Thread) stripe() int { return int(t.stripeID) }

// allocSB obtains a superblock region through the calling thread's
// region arena, or through the hyperblock layer when enabled (paper
// §3.2.5).
func (t *Thread) allocSB(words uint64) (mem.Ptr, error) {
	a := t.a
	if a.hyper != nil && words == a.hyper.SBWords() {
		return a.hyper.AllocFrom(t.arena)
	}
	p, _, err := t.arena.AllocRegion(words)
	return p, err
}

// freeSB returns a superblock region; the OS layer routes it to the
// arena owning its address, so any thread may free any superblock.
func (a *Allocator) freeSB(p mem.Ptr, words uint64) {
	if a.hyper != nil && words == a.hyper.SBWords() {
		a.hyper.Free(p)
		return
	}
	a.heap.FreeRegion(p, words)
}

// Scavenge returns fully-free hyperblocks to the OS layer (no-op
// unless Hyperblocks is enabled). Quiescent callers only.
func (a *Allocator) Scavenge() int {
	if a.hyper == nil {
		return 0
	}
	return a.hyper.Scavenge()
}

// HyperStats reports hyperblock-layer counters (zero value when the
// layer is disabled).
func (a *Allocator) HyperStats() mem.HyperStats {
	if a.hyper == nil {
		return mem.HyperStats{}
	}
	return a.hyper.Stats()
}

// Telemetry returns the attached telemetry recorder (nil when the
// layer is disabled).
func (a *Allocator) Telemetry() *telemetry.Recorder { return a.tele }

// ShadowOracle returns the attached shadow-heap oracle (nil when the
// layer is disabled or compiled out). Harnesses use it to collect the
// oracle's verdict as an additional terminal check.
func (a *Allocator) ShadowOracle() *shadow.Oracle { return a.shadow }

// Thread registers a new thread (goroutine) with the allocator and
// returns its handle. The handle is not safe for concurrent use; each
// worker goroutine should hold its own, as each OS thread does in the
// paper's pthread environment.
func (a *Allocator) Thread() *Thread {
	t := &Thread{a: a, id: a.nextThread.Add(1) - 1, shadow: a.shadow}
	t.opsp = &t.ops
	t.stripeID = int32(t.id)
	// The thread's region arena, like its processor heaps below: a pure
	// function of the thread id, resolved once (rebindable through the
	// policy layer on adaptive allocators).
	t.arena = a.heap.Arena(int(t.id))
	if a.tele != nil {
		t.rec = a.tele.NewShard(t.id, t.ops.totals)
	}
	if a.pol != nil {
		// Record the applied epoch before reading any policy values:
		// updates published after the epoch load trigger a (harmlessly
		// idempotent) re-apply at the first malloc; updates published
		// before it are visible to the capFor reads below.
		t.pol = &threadPolicy{table: a.pol}
		t.pol.stripeTarget.Store(-1)
		t.pol.arenaTarget.Store(-1)
		t.pol.applied = a.pol.seq.Load()
	}
	if a.cfg.MagazineSize > 0 || a.pol != nil {
		t.mags = make([]magazine, len(a.classes))
		for cls := range t.mags {
			c := a.cfg.MagazineSize
			if a.pol != nil {
				c = a.pol.capFor(cls)
			}
			mag := &t.mags[cls]
			mag.cap = c
			// A refill takes the block being allocated plus half a
			// magazine, leaving room for subsequent frees before the
			// next flush; one Active CAS can reserve at most MaxCredits
			// blocks.
			mag.want = min(uint64(c/2)+1, a.maxCredits)
			if int32(c) > t.magCap {
				t.magCap = int32(c)
			}
		}
	}
	// Resolve this thread's processor heap per size class once (the
	// paper's find_heap computes heap = f(sz, thread id) per malloc;
	// the function is pure, so caching it is behaviour-preserving).
	t.heaps = make([]*ProcHeap, len(a.classes))
	for i := range a.classes {
		sc := &a.classes[i]
		t.heaps[i] = &sc.heaps[t.id%a.procs]
	}
	a.mu.Lock()
	a.threads = append(a.threads, t)
	a.mu.Unlock()
	return t
}

// Thread is a per-goroutine allocation handle. Malloc/Free are the
// paper's malloc/free; the thread id selects processor heaps the way
// pthread ids do in the paper.
type Thread struct {
	a      *Allocator
	id     uint64
	arena  mem.Arena   // region arena for superblock and large allocs
	heaps  []*ProcHeap // per-size-class processor heap for this thread
	hookFn func(HookPoint)
	rec    *telemetry.ThreadShard // non-nil when telemetry is attached

	// stripeID is the descriptor-pool stripe this thread allocates from
	// and retires to: the thread id by default, rebindable through the
	// policy layer (see stripe()). int32 (with magCap below) to fund
	// the opsp word inside the fixed 256-byte budget; both are small by
	// construction (stripe counts and MaxMagazineCap are tiny).
	stripeID int32

	// magCap is the max per-class magazine watermark; 0 = layer
	// disabled.
	magCap int32

	// pol is this thread's view of the runtime policy layer; non-nil
	// only on adaptive allocators (Config.Adapt). The hot paths read
	// only the nil-ness and the applied epoch (see malloc's policy
	// poll); everything else lives in outlined applyPolicy.
	pol *threadPolicy

	// Magazine layer (Config.MagazineSize > 0 or Config.Adapt):
	// per-size-class private block caches, owned exclusively by this
	// thread's goroutine.
	mags       []magazine
	magScratch []mem.Ptr // reused flush-group buffer

	// opsp is where this thread's operation counters land: &ops below
	// by default, retargeted by SetCharge while an offload allocator
	// core executes another thread's request, so proxy-executed
	// operations are charged to the submitting thread. Owner-only
	// plain field; the counters behind it are atomic, so cross-thread
	// charging is race-free. Always non-nil, so the counter paths pay
	// one pointer load and no branch.
	opsp *opCounters

	// Operation counters, aggregated by Allocator.Stats. The owning
	// goroutine is the only writer (or, transiently, an offload
	// allocator core charged to this thread — see SetCharge); each
	// counter is atomic so Stats can sample them live from any
	// goroutine (see Stats for the snapshot semantics).
	ops opCounters

	// shadow mirrors Allocator.shadow; non-nil only when the oracle is
	// attached (shadowheap builds). Last field for the same reason as
	// Allocator.shadow: identical layout for the unshadowed build. The
	// fields above fill the 256-byte size class exactly, so every
	// Thread stays 64-byte aligned with the ops counter block at a
	// fixed cache-line phase (policy.go pins the total with
	// compile-time assertions).
	shadow *shadow.Oracle
}

// opCounters is the per-thread operation-counter block. The owning
// thread increments with atomic adds; Stats loads each counter
// atomically. The total malloc count is not stored: every successful
// small malloc takes exactly one of the four paths (magazine hit,
// active, partial, new superblock), so snapshot derives Mallocs =
// magHits+fromActive+fromPartial+fromNewSB and the malloc fast path
// pays a single uncontended atomic add.
type opCounters struct {
	frees             atomic.Uint64
	largeMallocs      atomic.Uint64
	largeFrees        atomic.Uint64
	fromActive        atomic.Uint64
	fromPartial       atomic.Uint64
	fromNewSB         atomic.Uint64
	newSBRaceLoss     atomic.Uint64
	emptySBFreed      atomic.Uint64
	emptyPartialSkips atomic.Uint64
	magHits           atomic.Uint64
	magMisses         atomic.Uint64
	magFlushes        atomic.Uint64
	partialListDrops  atomic.Uint64
}

// snapshot loads every counter. Loads are individually atomic but not
// mutually consistent (see Stats).
func (c *opCounters) snapshot() OpStats {
	fa, fp, fn := c.fromActive.Load(), c.fromPartial.Load(), c.fromNewSB.Load()
	mh := c.magHits.Load()
	return OpStats{
		Mallocs:           mh + fa + fp + fn,
		Frees:             c.frees.Load(),
		LargeMallocs:      c.largeMallocs.Load(),
		LargeFrees:        c.largeFrees.Load(),
		FromActive:        fa,
		FromPartial:       fp,
		FromNewSB:         fn,
		NewSBRaceLoss:     c.newSBRaceLoss.Load(),
		EmptySBFreed:      c.emptySBFreed.Load(),
		EmptyPartialSkips: c.emptyPartialSkips.Load(),
		MagazineHits:      mh,
		MagazineMisses:    c.magMisses.Load(),
		MagazineFlushes:   c.magFlushes.Load(),
		PartialListDrops:  c.partialListDrops.Load(),
	}
}

// totals returns the exact completed malloc and free counts, small and
// large, that the thread's telemetry shard reports (Snapshot.Mallocs
// and Frees): the counters every op already updates, read once more.
func (c *opCounters) totals() (mallocs, frees uint64) {
	mallocs = c.magHits.Load() + c.fromActive.Load() + c.fromPartial.Load() +
		c.fromNewSB.Load() + c.largeMallocs.Load()
	return mallocs, c.frees.Load() + c.largeFrees.Load()
}

// OpStats counts allocator operations observed by one thread or
// aggregated across threads.
type OpStats struct {
	Mallocs       uint64 // successful small mallocs (= MagazineHits+FromActive+FromPartial+FromNewSB)
	Frees         uint64 // small frees
	LargeMallocs  uint64
	LargeFrees    uint64
	FromActive    uint64 // mallocs satisfied by MallocFromActive
	FromPartial   uint64 // mallocs satisfied by MallocFromPartial
	FromNewSB     uint64 // mallocs satisfied by MallocFromNewSB
	NewSBRaceLoss uint64 // new superblocks discarded after losing the install race
	EmptySBFreed  uint64 // superblocks returned to the OS layer
	// EmptyPartialSkips counts EMPTY descriptors encountered (and
	// retired) while taking a superblock from a partial list
	// (MallocFromPartial line 6).
	EmptyPartialSkips uint64
	// MagazineHits counts small mallocs satisfied from a thread-local
	// magazine (zero shared atomics); MagazineMisses counts small
	// mallocs that found their magazine empty (each miss triggers one
	// batched refill attempt). Both are zero with the layer disabled.
	MagazineHits   uint64
	MagazineMisses uint64
	// MagazineFlushes counts superblock groups spliced back into
	// anchors by magazine flushes (one CAS each).
	MagazineFlushes uint64
	// PartialListDrops counts descriptors dropped because the partial
	// list could not accept them (node-pool exhaustion — a bounded
	// leak of superblock capacity in place of the pre-pool panic;
	// the dropped superblock's blocks stay live and freeable).
	PartialListDrops uint64
}

func (s *OpStats) add(o OpStats) {
	s.Mallocs += o.Mallocs
	s.Frees += o.Frees
	s.LargeMallocs += o.LargeMallocs
	s.LargeFrees += o.LargeFrees
	s.FromActive += o.FromActive
	s.FromPartial += o.FromPartial
	s.FromNewSB += o.FromNewSB
	s.NewSBRaceLoss += o.NewSBRaceLoss
	s.EmptySBFreed += o.EmptySBFreed
	s.EmptyPartialSkips += o.EmptyPartialSkips
	s.MagazineHits += o.MagazineHits
	s.MagazineMisses += o.MagazineMisses
	s.MagazineFlushes += o.MagazineFlushes
	s.PartialListDrops += o.PartialListDrops
}

// Stats is an allocator-wide snapshot.
type Stats struct {
	Ops             OpStats
	DescsAllocated  uint64
	DescsOnFreelist uint64
	Heap            mem.Stats
}

// Stats aggregates per-thread counters and descriptor/heap statistics.
// It is safe to call at any time, including while worker threads run.
//
// Snapshot semantics: every counter is read with an atomic load, so
// values are never torn and each is monotone; but the loads happen at
// slightly different instants, so cross-counter identities hold
// exactly only at quiescence (e.g. Mallocs == Frees may be off by
// in-flight operations). Mallocs ==
// MagazineHits+FromActive+FromPartial+FromNewSB holds by construction:
// snapshot derives the total from the path counters rather than
// maintaining a separate one.
func (a *Allocator) Stats() Stats {
	var s Stats
	a.mu.Lock()
	for _, t := range a.threads {
		s.Ops.add(t.ops.snapshot())
	}
	a.mu.Unlock()
	s.DescsAllocated = a.descs.Allocated()
	s.DescsOnFreelist = a.descs.Retired()
	s.Heap = a.heap.Stats()
	return s
}

// DescStripes returns the number of descriptor-pool freelist stripes.
func (a *Allocator) DescStripes() int { return a.descs.Stripes() }

// DescAlgo returns the descriptor pool's recycling backend.
func (a *Allocator) DescAlgo() pool.Algo { return a.descs.Algo() }

// DescStripeFree returns the retired-descriptor count on each
// descriptor-pool stripe (racy; exact at quiescence). Operators use it
// to see freelist imbalance next to the per-arena region-bin tables.
func (a *Allocator) DescStripeFree() []uint64 { return a.descs.StripeFree() }

// ID returns the thread id used for processor-heap selection.
func (t *Thread) ID() uint64 { return t.id }

// Allocator returns the owning allocator.
func (t *Thread) Allocator() *Allocator { return t.a }

// SetCharge retargets this thread's operation counters at another
// thread: while a charge is set, every Malloc/Free this handle
// executes is counted against other's OpStats instead of its own.
// SetCharge(nil) restores self-charging.
//
// This is the attribution contract for proxy execution (the offload
// engine's allocator cores): an operation submitted by worker W but
// executed by core C must appear in W's counters — C executes it *on
// behalf of* W — or per-thread accounting double- or mis-counts (see
// TestChargeAttribution). Only the owning goroutine may call SetCharge
// (like Malloc/Free); the charged counters are atomic, so the target
// thread may run its own operations concurrently.
func (t *Thread) SetCharge(other *Thread) {
	if other == nil {
		t.opsp = &t.ops
		return
	}
	t.opsp = &other.ops
}

// OpStats returns this thread's own operation counters (including
// operations proxy-charged to it via SetCharge). Safe to call from any
// goroutine; same snapshot semantics as Allocator.Stats.
func (t *Thread) OpStats() OpStats { return t.ops.snapshot() }

// TelemetryShard returns the thread's telemetry shard (nil when the
// telemetry layer is disabled). The offload worker layer uses it to
// record stash hit/miss/fallback counters and stash-hit latencies into
// the same per-thread shards the core's operations use.
func (t *Thread) TelemetryShard() *telemetry.ThreadShard { return t.rec }

// OffloadConfig returns the construction-time offload knobs
// (Config.Offload). The core never acts on them; the internal/offload
// engine reads them here.
func (a *Allocator) OffloadConfig() OffloadConfig { return a.cfg.Offload }

// BlockIsLarge reports whether a block returned by Malloc is a large
// block (allocated directly from the OS layer) by inspecting its
// prefix. The offload worker layer uses it to route large frees
// directly instead of deferring them in a batch.
func (a *Allocator) BlockIsLarge(p mem.Ptr) bool { return prefixIsLarge(a.heap.Load(p - 1)) }

// findHeap maps (size class, thread id) to a processor heap (paper:
// "Use sz and thread id to find heap").
func (t *Thread) findHeap(sc *scState) *ProcHeap {
	return t.heaps[sc.class.Index]
}

// prefix encoding: small blocks store descIdx<<1 (bit 0 clear); large
// blocks store mem.SizePrefix(regionWords) — the region's rounded word
// count <<1|1 (the paper's "desc holds sz+1" with the large-block bit
// set; rounded so the free path passes FreeRegion the canonical region
// size).
func smallPrefix(descIdx uint64) uint64 { return descIdx << 1 }

func prefixIsLarge(p uint64) bool { return p&1 != 0 }
