package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/pool"
)

// Layer probes call one layer's public API directly from two
// goroutines, outside any allocator, and report the median time of one
// pair (batch time / probeOps).

// superblockWords is the core's superblock size (16 KiB, §3 of the
// paper): the region size the core asks internal/mem for.
const superblockWords = 16 << 10 / mem.WordBytes

// probe runs pair on two goroutines for dur ns and returns the median
// pair time and the number of batches timed. pair(w) performs one pair
// for goroutine w and returns false on a failed allocation.
func probe(dur int64, pair func(w int) bool) (float64, uint64, error) {
	var (
		wg     sync.WaitGroup
		failed atomic.Bool
		lat    [workers][]uint32
	)
	deadline := nowNS() + dur
	for w := 0; w < workers; w++ {
		wg.Add(1)
		lat[w] = make([]uint32, 0, dur/(probeOps*10)+1)
		go func(w int) {
			defer wg.Done()
			t0 := nowNS()
			for t0 < deadline {
				for k := 0; k < probeOps; k++ {
					if !pair(w) {
						failed.Store(true)
						return
					}
				}
				t1 := nowNS()
				lat[w] = append(lat[w], clamp32(t1-t0))
				t0 = t1
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		return 0, 0, fmt.Errorf("probe allocation failed")
	}
	all := append(lat[0], lat[1]...)
	p50, _ := batchQuantiles(all, 1.0/probeOps)
	return p50, uint64(len(all)), nil
}

// probeRegion times mem AllocRegion+FreeRegion of one superblock on a
// heap sharded like the allocator's (one arena per processor).
func probeRegion(dur int64) (float64, uint64, error) {
	h := mem.NewHeap(mem.Config{Arenas: workers})
	return probe(dur, func(w int) bool {
		ar := h.Arena(w)
		p, n, err := ar.AllocRegion(superblockWords)
		if err != nil {
			return false
		}
		ar.FreeRegion(p, n)
		return true
	})
}

// probeLarge times mem LargeAlloc+LargeFree at churn's large sizes:
// the log-uniform draws of churnSize above the largest small class.
func probeLarge(dur int64, seed int64) (float64, uint64, error) {
	h := mem.NewHeap(mem.Config{Arenas: workers})
	var sizes [workers][]uint64
	for w := range sizes {
		r := newRNG(seed, uint64(w)+100)
		for len(sizes[w]) < 4096 {
			if s := churnSize(&r); s > churnMax/2 {
				sizes[w] = append(sizes[w], s)
			}
		}
	}
	var next [workers]struct {
		i int
		_ [56]byte // one cache line per goroutine
	}
	return probe(dur, func(w int) bool {
		s := sizes[w][next[w].i%len(sizes[w])]
		next[w].i++
		p, err := h.Arena(w).LargeAlloc(s, mem.SizePrefix)
		if err != nil {
			return false
		}
		h.LargeFree(p, mem.SizePrefixWords(h.Load(p-1)))
		return true
	})
}

// probeNode is a pool node the size of nothing but its link word; the
// pool's cost does not depend on the node's payload.
type probeNode struct{ next atomic.Uint64 }

func (n *probeNode) PoolNext() *atomic.Uint64 { return &n.next }

// probeDesc times pool Alloc+Retire on a pool configured like the
// core's descriptor pool (64-node chunks, one stripe per processor).
func probeDesc(dur int64) (float64, uint64, error) {
	p := pool.New[probeNode, *probeNode](pool.Config{ChunkLog2: 6, MaxChunks: 1 << 18, Stripes: workers})
	return probe(dur, func(w int) bool {
		idx, err := p.Alloc(w)
		if err != nil {
			return false
		}
		p.Retire(w, idx)
		return true
	})
}
