package core

import (
	"math/bits"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/sizeclass"
	"repro/internal/telemetry"
)

// sizeclassFor maps a payload size to a size-class index.
func sizeclassFor(size uint64) (int, bool) {
	return sizeclass.IndexFor(size)
}

// Free returns a block allocated by Malloc (paper Figure 6). Freeing
// the nil pointer is a no-op. Free is lock-free and may be called by
// any thread, not just the allocating one.
func (t *Thread) Free(ptr mem.Ptr) {
	if ptr.IsNil() { // line 1
		return
	}
	// Mirror into the shadow oracle before the operation, while the
	// block's prefix and payload are still intact: the model marks the
	// block freed (and poisons it) before the allocator can recycle it.
	// A false return means the free is invalid — double free, pointer
	// never allocated, clobbered prefix — and is swallowed so the
	// allocator's own structures are not corrupted by it (the oracle has
	// already reported or recorded the violation). Compiles to nothing
	// without the shadowheap tag.
	if !t.shadowNoteFree(ptr) {
		return
	}
	prefix := t.a.heap.Load(ptr - 1) // line 2: get prefix, resolved once
	if t.rec == nil {
		t.free(ptr, prefix)
		return
	}
	// Telemetry path. Match against the allocation sampler before the
	// block can be recycled (and outside the timed window, so sampling
	// never skews the free latency histogram).
	t.rec.SampleFree(uint64(ptr))
	if t.rec.BeginOp(telemetry.EvFree) {
		t.freeTimed(ptr, prefix)
		return
	}
	t.free(ptr, prefix)
	if t.rec.Retried() {
		// The class is read after the free, so a descriptor recycled
		// meanwhile can mislabel the event; the ring is a diagnostic
		// aid.
		t.rec.Note(telemetry.EvFree, t.prefixClass(prefix), uint64(ptr))
	}
}

// freeTimed is the 1-in-RingSample timed Free: it resolves the size
// class from the already-loaded prefix (before the block is recycled),
// then times the operation. Outlined so the untimed path stays small
// and skips the descriptor load.
//
//go:noinline
func (t *Thread) freeTimed(ptr mem.Ptr, prefix uint64) {
	cls := t.prefixClass(prefix)
	start := telemetry.Clock()
	t.free(ptr, prefix)
	t.rec.EndFree(cls, telemetry.Clock()-start, uint64(ptr))
}

// prefixClass returns the size class a block prefix names, -1 for a
// large block.
func (t *Thread) prefixClass(prefix uint64) int {
	if prefixIsLarge(prefix) {
		return -1
	}
	return t.a.desc(prefix >> 1).ClassIndex()
}

// free releases a non-nil block whose prefix the caller has already
// loaded (Free and the telemetry wrapper resolve it exactly once).
func (t *Thread) free(ptr mem.Ptr, prefix uint64) {
	a := t.a
	block := ptr - 1
	if prefixIsLarge(prefix) { // line 4
		// Large block: return directly to the OS layer (line 5).
		a.heap.LargeFree(ptr, mem.SizePrefixWords(prefix))
		t.opsp.largeFrees.Add(1)
		return
	}
	descIdx := prefix >> 1
	desc := a.desc(descIdx) // line 3
	if t.magCap != 0 {
		// Magazine path: cache the block thread-locally; the shared
		// anchor is only touched when a flush splices a whole batch.
		// Per-class caps can differ under an adaptive policy, so the
		// class's own cap gates the put (cap 0 = caching off there).
		if cls := desc.ClassIndex(); t.mags[cls].cap > 0 {
			t.magazinePut(cls, ptr)
			t.opsp.frees.Add(1)
			return
		}
	}
	sb := desc.SB() // line 6
	maxcount := desc.MaxCount()
	// line 9: this block's index, offset/size via the precomputed
	// reciprocal (exact within a superblock).
	idx, _ := bits.Mul64(block.Sub(sb), desc.szMagic.Load())

	// Fast path: the superblock stays in its current state (not FULL,
	// not about to become EMPTY); only avail, count, and the link word
	// change. Operates on the packed anchor word directly.
	for {
		w := desc.Anchor.Load()
		if w>>atomicx.AnchorStateShift&atomicx.AnchorStateMask == atomicx.StateFull ||
			w>>atomicx.AnchorCountShift&atomicx.AnchorCountMask == maxcount-1 {
			break // slow path below
		}
		a.heap.Store(block, w&atomicx.AnchorAvailMask) // line 8: link to old head
		nw := (w &^ uint64(atomicx.AnchorAvailMask)) | idx
		nw += 1 << atomicx.AnchorCountShift // count++
		t.hook(HookFreeBeforeCAS)
		if desc.Anchor.CompareAndSwap(w, nw) {
			t.opsp.frees.Add(1)
			return
		}
		if t.rec != nil {
			t.rec.Retry(telemetry.SiteFreeFast)
		}
	}

	var oldAnchor, newAnchor atomicx.Anchor
	var heapID uint64
	for {
		oldWord := desc.Anchor.Load()
		oldAnchor = atomicx.UnpackAnchor(oldWord) // line 7
		newAnchor = oldAnchor
		// Push the freed block onto the superblock's LIFO list: the
		// block's first word becomes the link to the previous head
		// (line 8), and avail points at this block (line 9).
		a.heap.Store(block, oldAnchor.Avail)
		newAnchor.Avail = idx
		if oldAnchor.State == atomicx.StateFull { // lines 10-11
			newAnchor.State = atomicx.StatePartial
		}
		if oldAnchor.Count == maxcount-1 { // line 12
			heapID = desc.heapID.Load()          // line 13
			atomicx.InstructionFence()           // line 14
			newAnchor.State = atomicx.StateEmpty // line 15
		} else {
			newAnchor.Count++ // line 16
		}
		atomicx.Fence() // line 17: publish the link store before the CAS
		t.hook(HookFreeBeforeCAS)
		if desc.Anchor.CompareAndSwap(oldWord, newAnchor.Pack()) { // line 18
			break
		}
		if t.rec != nil {
			t.rec.Retry(telemetry.SiteFreeSlow)
		}
	}
	t.opsp.frees.Add(1)

	if newAnchor.State == atomicx.StateEmpty { // lines 19-21
		// This thread freed the last allocated block: the superblock
		// is EMPTY and safe to return to the OS.
		a.freeSB(sb, desc.SBWords())
		t.opsp.emptySBFreed.Add(1)
		if t.rec != nil {
			t.rec.Note(telemetry.EvSBRetire, desc.ClassIndex(), uint64(sb))
		}
		t.hook(HookFreeBeforeRetire)
		t.removeEmptyDesc(heapID, descIdx)
	} else if oldAnchor.State == atomicx.StateFull { // lines 22-23
		// First free into a FULL superblock: this thread takes
		// responsibility for linking it back into the allocator
		// structures.
		t.hook(HookFreeBeforePutPartial)
		t.heapPutPartial(descIdx)
	}
}

// heapPutPartial is Figure 6's HeapPutPartial: atomically swap the
// descriptor into the Partial slot of the heap that last owned the
// superblock; a displaced previous occupant moves to the size class's
// partial list.
func (t *Thread) heapPutPartial(descIdx uint64) {
	a := t.a
	desc := a.desc(descIdx)
	h := a.procHeap(desc.heapID.Load())
	if a.cfg.NoPartialSlot {
		t.listPutPartial(h.sc, descIdx)
		return
	}
	// With multiple slots (§3.2.6 option), fill an empty extra slot
	// before displacing the MRU slot.
	for i := range h.extraPartial {
		if h.extraPartial[i].CompareAndSwap(0, descIdx) {
			return
		}
	}
	var prev uint64
	for { // lines 1-2
		prev = h.Partial.Load()
		if h.Partial.CompareAndSwap(prev, descIdx) {
			break
		}
		if t.rec != nil {
			t.rec.Retry(telemetry.SitePartialSlot)
		}
	}
	if prev != 0 { // line 3
		t.listPutPartial(h.sc, prev) // ListPutPartial
	}
}

// listPutPartial inserts a descriptor into the size class's partial
// list. The only failure is node-pool exhaustion (pool.ErrExhausted),
// which the free path has no way to report; the descriptor is dropped
// instead — its superblock's live blocks stay freeable through their
// prefixes, only the unallocated remainder is leaked — and counted, so
// the condition is observable. The pre-pool implementation panicked.
func (t *Thread) listPutPartial(sc *scState, descIdx uint64) {
	if err := sc.partial.Put(descIdx); err != nil {
		t.opsp.partialListDrops.Add(1)
	}
}

// removeEmptyDesc is Figure 6's RemoveEmptyDesc: retire the descriptor
// if it can be removed from the heap's Partial slot with a single CAS;
// otherwise ask the size class's list to shed an empty descriptor.
func (t *Thread) removeEmptyDesc(heapID, descIdx uint64) {
	a := t.a
	h := a.procHeap(heapID)
	if !a.cfg.NoPartialSlot {
		if h.Partial.CompareAndSwap(descIdx, 0) { // line 1
			a.descs.Retire(t.stripe(), descIdx) // line 2
			return
		}
		for i := range h.extraPartial {
			if h.extraPartial[i].CompareAndSwap(descIdx, 0) {
				a.descs.Retire(t.stripe(), descIdx)
				return
			}
		}
	}
	t.listRemoveEmptyDesc(h.sc) // line 3
}

// listRemoveEmptyDesc is the FIFO-list variant of ListRemoveEmptyDesc
// (§3.2.6): dequeue from the head until an empty descriptor is removed
// (and retired) or the end of the list is reached; a dequeued non-empty
// descriptor is re-enqueued at the tail. Moving at most two non-empty
// descriptors per call bounds the empty fraction of the list at one
// half. The goal is only that empty descriptors are *eventually*
// recycled, not that this particular one is removed now.
func (t *Thread) listRemoveEmptyDesc(sc *scState) {
	a := t.a
	for moved := 0; moved < 2; {
		descIdx, ok := sc.partial.Get()
		if !ok {
			return
		}
		desc := a.desc(descIdx)
		if atomicx.UnpackAnchor(desc.Anchor.Load()).State == atomicx.StateEmpty {
			a.descs.Retire(t.stripe(), descIdx)
			return
		}
		t.listPutPartial(sc, descIdx)
		moved++
	}
}
