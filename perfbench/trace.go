package main

import (
	"bufio"
	"fmt"
	"os"
)

// Span names. A span is recorded by the benchmark around one call into
// a layer's public API; spanOp is the benchmark op (prodcons: one side
// of a task) that caused the calls under it.
const (
	spanOp uint8 = iota
	spanMalloc
	spanFree
	spanEnqueue
	spanDequeue
)

var spanNames = [...]string{"bench.op", "core.malloc", "core.free", "pool.enqueue", "pool.dequeue"}

// Malloc paths, read from which OpStats counter moved across the call.
const (
	pathActive uint8 = iota
	pathPartial
	pathNewSB
	pathLarge
	pathUnknown
	numMallocPaths
)

// Free path bits: whether another worker allocated the block, and
// whether it is a large block.
const (
	freeRemote uint8 = 1 << iota
	freeLarge
)

// span is one timed call. Spans of one op share trace; parent indexes
// the causing span in the same worker's buffer (-1 for an op span).
type span struct {
	trace      uint64
	start, end int64
	parent     int32
	name       uint8
	path       uint8
}

// tracer is one worker's in-memory span buffer. Its capacity is fixed
// up front so recording never allocates; ops are sampled 1 in every.
// The spans of the op in progress go to a small scratch buffer that
// stays in cache and are copied out when the op's span ends: a store
// missing the cache inside a span would be paid by the next atomic
// instruction, which is in the measured call.
type tracer struct {
	spans []span
	cur   []span
	every uint64
}

func newTracer(capacity int, every uint64) *tracer {
	return &tracer{
		spans: make([]span, 0, capacity),
		cur:   make([]span, 0, 2*churnBatch+1),
		every: every,
	}
}

// room reports whether an op of n spans fits the buffer.
func (t *tracer) room(n int) bool { return len(t.spans)+n <= cap(t.spans) }

// begin opens a span; a child inherits its parent's trace id. The
// clock is read last so the bookkeeping stays outside the span. Spans
// are timed in ticks.
func (t *tracer) begin(name uint8, trace uint64, parent int32) int32 {
	if parent >= 0 {
		trace = t.cur[parent].trace
	}
	t.cur = append(t.cur, span{trace: trace, parent: parent, name: name})
	i := int32(len(t.cur) - 1)
	t.cur[i].start = ticks()
	return i
}

// end closes span i; closing an op span moves the op's spans to the
// buffer, re-basing their parent indexes.
func (t *tracer) end(i int32) {
	t.cur[i].end = ticks()
	if t.cur[i].parent >= 0 {
		return
	}
	base := int32(len(t.spans))
	for _, s := range t.cur {
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
	t.cur = t.cur[:0]
}

// truncate discards span i and every span opened after it.
func (t *tracer) truncate(i int32) { t.cur = t.cur[:i] }

// clockPairs is how many back-to-back clock reads clockCost times.
const clockPairs = 20000

// clockCost is the median time in ticks two back-to-back clock reads
// measure: the part of every span that is the clock itself.
func clockCost() float64 {
	xs := make([]float64, clockPairs)
	for i := range xs {
		t0 := ticks()
		xs[i] = float64(ticks() - t0)
	}
	return median(xs)
}

// spanStats summarises the span pass. Times are span durations less
// the clock cost; a parent's self time also excludes its children, each
// of which adds its duration plus one more clock cost to the parent.
type spanStats struct {
	clock float64
	spans int
	ops   int // sampled ops

	malloc, free       []float64
	mallocByPath       [numMallocPaths][]float64
	freeByPath         [4][]float64 // indexed by the free path bits
	enqueue, dequeue   []float64    // self times: the nested node malloc or free is core's
	selfCore, selfPool float64      // summed self time of the layer's spans
	selfBench          float64      // summed self time of op spans (the benchmark's own work)
}

// analyze computes span statistics in ns; clock is clockCost's ticks.
func analyze(tracers []*tracer, clock float64) *spanStats {
	scale := nsPerTick()
	clock *= scale
	st := &spanStats{clock: clock}
	for _, t := range tracers {
		children := make([]float64, len(t.spans))
		for i := len(t.spans) - 1; i >= 0; i-- {
			s := &t.spans[i]
			raw := float64(s.end-s.start) * scale
			if s.parent >= 0 {
				children[s.parent] += raw + clock
			}
			self := raw - clock - children[i]
			switch s.name {
			case spanOp:
				st.ops++
				st.selfBench += self
			case spanMalloc:
				st.malloc = append(st.malloc, self)
				st.mallocByPath[s.path] = append(st.mallocByPath[s.path], self)
				st.selfCore += self
			case spanFree:
				st.free = append(st.free, self)
				st.freeByPath[s.path] = append(st.freeByPath[s.path], self)
				st.selfCore += self
			case spanEnqueue:
				st.enqueue = append(st.enqueue, self)
				st.selfPool += self
			case spanDequeue:
				st.dequeue = append(st.dequeue, self)
				st.selfPool += self
			}
		}
		st.spans += len(t.spans)
	}
	return st
}

// freeMedians returns the median time and the count of local and of
// remote frees (small and large together).
func (st *spanStats) freeMedians() (local, remote float64, nLocal, nRemote uint64) {
	var l, r []float64
	for path, xs := range st.freeByPath {
		if uint8(path)&freeRemote != 0 {
			r = append(r, xs...)
		} else {
			l = append(l, xs...)
		}
	}
	return median(l), median(r), uint64(len(l)), uint64(len(r))
}

// writeSpans writes every recorded span as one tab-separated line:
// span id, parent id (0 for an op span), trace id, worker, name, path,
// start and end in ns since the benchmark started. Span ids are
// worker<<32 | (index+1), unique within a run.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	scale := nsPerTick()
	ns := func(tick int64) int64 { return int64(float64(tick-tickEpoch) * scale) }
	fmt.Fprintln(w, "id\tparent\ttrace\tworker\tname\tpath\tstart_ns\tend_ns")
	for wid, t := range tracers {
		for i, s := range t.spans {
			id := uint64(wid)<<32 | uint64(i+1)
			parent := uint64(0)
			if s.parent >= 0 {
				parent = uint64(wid)<<32 | uint64(s.parent+1)
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n", id, parent, s.trace, wid, spanNames[s.name], s.path, ns(s.start), ns(s.end))
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
