package buddy

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/telemetry"
)

func newTest(t *testing.T) *Allocator {
	t.Helper()
	return New(Config{
		HeapConfig:    mem.Config{SegmentWordsLog2: 14, TotalWordsLog2: 22},
		TreeWordsLog2: 12, // 4096-word trees, depth 9 with 8-word leaves
	})
}

func checkStrict(t *testing.T, a *Allocator) {
	t.Helper()
	if err := a.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := newTest(t)
	th := a.Thread()
	p, err := th.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if u := th.UsableWords(p); u < 13 {
		t.Fatalf("UsableWords = %d, want >= 13 for a 100-byte block", u)
	}
	// The payload must be writable without clobbering the prefix.
	a.Heap().Set(p, 0xdead)
	for i := uint64(0); i < th.UsableWords(p); i++ {
		a.Heap().Set(p.Add(i), uint64(i))
	}
	th.Free(p)
	checkStrict(t, a)
	if s := a.Stats(); s.Mallocs != 1 || s.Frees != 1 {
		t.Fatalf("stats = %+v, want 1 malloc / 1 free", s)
	}
}

func TestBlockGeometry(t *testing.T) {
	a := newTest(t)
	th := a.Thread()
	// Every block (prefix included) must be a power of two, aligned to
	// its own size — the invariant memdebug asserts on every Malloc.
	for _, size := range []uint64{1, 8, 56, 57, 100, 500, 4000, 30000} {
		p, err := th.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		base := uint64(p) - 1
		total := th.UsableWords(p) + 1
		if total&(total-1) != 0 {
			t.Fatalf("size %d: block is %d words, not a power of two", size, total)
		}
		if base%total != 0 {
			t.Fatalf("size %d: block base %#x not aligned to %d words", size, base, total)
		}
		if total*mem.WordBytes < size+mem.WordBytes {
			t.Fatalf("size %d: block of %d words too small", size, total)
		}
		th.Free(p)
	}
	checkStrict(t, a)
}

func TestSplitAndMergeSequential(t *testing.T) {
	a := newTest(t)
	th := a.Thread()
	// Fill the first tree completely with leaf blocks, then free them
	// all; coalescing must rebuild one maximal tree-sized free block.
	leafPayload := (a.Stats().MinBlockWords - 1) * mem.WordBytes
	perTree := a.treeWords / a.minWords
	ptrs := make([]mem.Ptr, 0, perTree)
	for i := uint64(0); i < perTree; i++ {
		p, err := th.Malloc(leafPayload)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	census := a.OrderCensus()
	if got := census[a.depth].Used; got < perTree {
		t.Fatalf("leaf Used = %d, want >= %d", got, perTree)
	}
	for _, p := range ptrs {
		th.Free(p)
	}
	checkStrict(t, a)
	census = a.OrderCensus()
	if census[0].Free != uint64(a.Trees()) {
		t.Fatalf("after drain: %d maximal tree-sized free blocks, want %d (census %+v)",
			census[0].Free, a.Trees(), census)
	}
	// The coalesced tree serves a whole-tree allocation again.
	p, err := th.Malloc((a.treeWords - 1) * mem.WordBytes)
	if err != nil {
		t.Fatalf("whole-tree alloc after coalescing: %v", err)
	}
	th.Free(p)
	checkStrict(t, a)
}

func TestGrowUnderPressure(t *testing.T) {
	a := newTest(t)
	th := a.Thread()
	// Allocating more than one tree's worth must publish more trees.
	var ptrs []mem.Ptr
	for i := 0; i < 3; i++ {
		p, err := th.Malloc((a.treeWords - 1) * mem.WordBytes)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	if a.Trees() < 3 {
		t.Fatalf("Trees = %d after three whole-tree allocs, want >= 3", a.Trees())
	}
	for _, p := range ptrs {
		th.Free(p)
	}
	checkStrict(t, a)
}

func TestLargePathBeyondTree(t *testing.T) {
	a := newTest(t)
	th := a.Thread()
	size := a.treeWords * mem.WordBytes * 2
	p, err := th.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if u := th.UsableWords(p); u*mem.WordBytes < size {
		t.Fatalf("large block UsableWords = %d words, want >= %d bytes", u, size)
	}
	th.Free(p)
	s := a.Stats()
	if s.LargeMallocs != 1 || s.LargeFrees != 1 {
		t.Fatalf("stats = %+v, want the beyond-tree request on the large path", s)
	}
	// Truly impossible requests surface the shared overflow error.
	if _, err := th.Malloc(1 << 40); !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("huge Malloc error = %v, want ErrOutOfMemory", err)
	}
	checkStrict(t, a)
}

func TestOrderCensusMixed(t *testing.T) {
	a := newTest(t)
	th := a.Thread()
	p1, err := th.Malloc(7 * mem.WordBytes) // leaf block
	if err != nil {
		t.Fatal(err)
	}
	p2, err := th.Malloc(100 * mem.WordBytes) // 128-word block
	if err != nil {
		t.Fatal(err)
	}
	census := a.OrderCensus()
	var used, freeWords, usedWords uint64
	for _, row := range census {
		used += row.Used
		freeWords += row.Free * row.BlockWords
		usedWords += row.Used * row.BlockWords
	}
	if used != 2 {
		t.Fatalf("census counts %d used blocks, want 2: %+v", used, census)
	}
	if total := freeWords + usedWords; total != a.treeWords*uint64(a.Trees()) {
		t.Fatalf("census words %d, want the whole forest %d", total, a.treeWords*uint64(a.Trees()))
	}
	th.Free(p1)
	th.Free(p2)
	checkStrict(t, a)
}

func TestTelemetryWiring(t *testing.T) {
	st := &telemetry.Stripes{}
	a := New(Config{
		HeapConfig:    mem.Config{SegmentWordsLog2: 14, TotalWordsLog2: 22},
		TreeWordsLog2: 12,
		Telemetry:     st,
	})
	th := a.Thread()
	// Force a reserve conflict: a stale hint for an occupied node.
	p, err := th.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	th.Free(p)
	q, err := th.Malloc(8) // consumes the hint
	if err != nil {
		t.Fatal(err)
	}
	th.Free(q)
	// Names exist for all five sites (a nameless site would break the
	// snapshot/report retry tables).
	for _, site := range []telemetry.Site{
		telemetry.SiteBuddyReserve, telemetry.SiteBuddyFragment,
		telemetry.SiteBuddyMark, telemetry.SiteBuddyUnmark,
		telemetry.SiteBuddyGrow,
	} {
		if name := site.String(); name == "" || name == "site-invalid" {
			t.Fatalf("site %d has no name", site)
		}
	}
}

func TestInvariantCheckerCatchesCorruption(t *testing.T) {
	a := newTest(t)
	th := a.Thread()
	p, err := th.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	tr := (*a.trees.Load())[0]
	// Clobber an ancestor occupancy bit: strict checking must object.
	node := (a.heap.Load(p-1) >> 1) & (1<<nodeBits - 1)
	tr.status[node>>1].Store(0)
	if err := a.CheckInvariants(true); err == nil {
		t.Fatal("strict CheckInvariants accepted a cleared ancestor bit")
	}
	// Restore and confirm it passes again.
	tr.status[node>>1].Store(occBit(node))
	checkStrict(t, a)
	th.Free(p)
	checkStrict(t, a)
}

func TestNonStrictCatchesDoubleOwnership(t *testing.T) {
	a := newTest(t)
	th := a.Thread()
	p, err := th.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	node := (a.heap.Load(p-1) >> 1) & (1<<nodeBits - 1)
	tr := (*a.trees.Load())[0]
	// Fabricate a second fully-fragmented occupied node above p's: the
	// crash-safety walker must reject the double ownership.
	anc := node >> 2
	if anc < 1 {
		t.Skip("tree too shallow")
	}
	tr.status[anc].Store(tr.status[anc].Load() | occ)
	for c := anc; c > 1; c >>= 1 {
		old := tr.status[c>>1].Load()
		tr.status[c>>1].Store(old | occBit(c))
	}
	if err := a.CheckInvariants(false); err == nil {
		t.Fatal("non-strict CheckInvariants accepted two fully-fragmented owners on one path")
	}
}

func TestHookPointNames(t *testing.T) {
	seen := map[string]bool{}
	for p := HookPoint(0); p < NumHookPoints; p++ {
		name := p.String()
		if name == "" || name == "hook-invalid" || seen[name] {
			t.Fatalf("hook %d has bad or duplicate name %q", p, name)
		}
		seen[name] = true
	}
	if HookPoint(-1).String() != "hook-invalid" || NumHookPoints.String() != "hook-invalid" {
		t.Fatal("out-of-range hook points must stringify as invalid")
	}
}

func TestUsedCountersTrackCensus(t *testing.T) {
	a := newTest(t)
	th := a.Thread()
	var ptrs []mem.Ptr
	for i := 0; i < 50; i++ {
		p, err := th.Malloc(uint64(8 * (i%16 + 1)))
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	checkStrict(t, a) // strict mode cross-checks used counters
	for _, p := range ptrs {
		th.Free(p)
	}
	checkStrict(t, a)
	if bits := a.CoalBits(); bits != 0 {
		t.Fatalf("CoalBits = %d after a quiescent drain, want 0", bits)
	}
}

func TestName(t *testing.T) {
	a := newTest(t)
	if a.Name() != "buddy" {
		t.Fatalf("Name = %q", a.Name())
	}
	if a.Depth() != a.treeLog2-3 {
		t.Fatalf("Depth = %d, want %d", a.Depth(), a.treeLog2-3)
	}
	if got := fmt.Sprintf("%d", a.MaxBlockWords()); got != "4096" {
		t.Fatalf("MaxBlockWords = %s, want 4096", got)
	}
}

// TestFreeNextToLiveBuddyLeavesNoMarks: a free whose merge stops at a
// live buddy must not leave coalescing marks above that level. They
// would outlive the free until another operation passed through, and
// a buddy that is never freed would strand them for good, keeping the
// larger blocks above unallocatable.
func TestFreeNextToLiveBuddyLeavesNoMarks(t *testing.T) {
	a := newTest(t)
	th := a.Thread()
	x, err := th.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	y, err := th.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	th.Free(x)
	if n := a.CoalBits(); n != 0 {
		t.Fatalf("%d coalescing marks left after a completed free next to a live block", n)
	}
	checkStrict(t, a)
	th.Free(y)
	if n := a.CoalBits(); n != 0 {
		t.Fatalf("%d coalescing marks left with every block free", n)
	}
	checkStrict(t, a)
}

// TestConcurrentBuddyFreesMerge frees two buddy leaves with the second
// free run to completion inside the first, at each point between the
// first's mark and its unmark: whichever order the marks and unmarks
// land in, the pair must merge all the way up, leave no marks, and
// give back a whole-tree block.
func TestConcurrentBuddyFreesMerge(t *testing.T) {
	for _, point := range []HookPoint{HookFreeAfterMark, HookFreeAfterRelease, HookFreeDuringUnmark} {
		t.Run(point.String(), func(t *testing.T) {
			a := newTest(t)
			A, B := a.Thread(), a.Thread()
			x, err := A.Malloc(8)
			if err != nil {
				t.Fatal(err)
			}
			y, err := B.Malloc(8)
			if err != nil {
				t.Fatal(err)
			}
			if x.Sub(y) != a.minWords && y.Sub(x) != a.minWords {
				t.Fatalf("test setup: blocks %v and %v are not buddies", x, y)
			}
			fired := false
			A.SetHook(func(p HookPoint) {
				if p == point && !fired {
					fired = true
					B.Free(y)
				}
			})
			A.Free(x)
			A.SetHook(nil)
			if !fired {
				t.Fatalf("%v never fired", point)
			}
			if n := a.CoalBits(); n != 0 {
				t.Fatalf("%d coalescing marks left after both frees", n)
			}
			checkStrict(t, a)
			whole, err := A.Malloc((a.MaxBlockWords() - 1) * mem.WordBytes)
			if err != nil {
				t.Fatal(err)
			}
			if a.Trees() != 1 {
				t.Fatalf("whole-tree block needed a new tree: the pair did not merge to the root")
			}
			A.Free(whole)
			checkStrict(t, a)
		})
	}
}
