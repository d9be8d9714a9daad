package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout: HDR-style, log2 octaves split into linear sub-buckets.
// Durations below exactNS nanoseconds get one bucket each (exact);
// from there every octave [2^e, 2^(e+1)) is split into subBuckets
// equal-width buckets of 2^(e-subBits) ns, so a bucket's width is at
// most 1/subBuckets (12.5%) of its lower bound and a quantile read as
// a bucket midpoint is within 6.25% of the true value.
const (
	subBits    = 3
	subBuckets = 1 << subBits // linear sub-buckets per octave
	exactNS    = 16           // durations below this are bucketed exactly
	exactBits  = 4            // bits.Len64(exactNS) - 1
	maxOctave  = 39           // octaves from 2^exactBits ns to 2^40 ns
)

// NumBuckets is the number of latency buckets: exactNS exact buckets,
// then subBuckets per octave up to 2^(maxOctave+1) ns (~18 minutes).
// The last bucket absorbs everything longer.
const NumBuckets = exactNS + (maxOctave-exactBits+1)*subBuckets

// Histogram is a lock-free HDR-bucketed latency histogram. Recording
// is one atomic increment; merging is a bucketwise load.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	ns := uint64(d.Nanoseconds())
	if ns < exactNS {
		return int(ns)
	}
	e := bits.Len64(ns) - 1 // octave: ns in [2^e, 2^(e+1))
	sub := int(ns>>(e-subBits)) & (subBuckets - 1)
	b := exactNS + (e-exactBits)*subBuckets + sub
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// bucketLow returns the smallest nanosecond value bucket i holds, and
// its width in nanoseconds.
func bucketLow(i int) (low, width uint64) {
	if i < exactNS {
		return uint64(i), 1
	}
	e := (i-exactNS)/subBuckets + exactBits
	sub := uint64((i - exactNS) % subBuckets)
	width = 1 << (e - subBits)
	return 1<<e + sub*width, width
}

// BucketBelow returns the number of buckets holding only durations
// below 2^k ns, for 0 <= k <= maxOctave+1: octave boundaries fall on
// bucket boundaries, so a log2 view (census's Prometheus live-age
// histogram) sums buckets [0, BucketBelow(k)) for its le=2^k bound.
func BucketBelow(k int) int {
	if k <= exactBits {
		return 1 << k
	}
	return exactNS + (k-exactBits)*subBuckets
}

// clockBase anchors Clock's readings.
var clockBase = time.Now()

// Clock returns a monotonic timestamp for timing an operation. It is
// one clock read: time.Now also reads the wall clock, so timing with
// time.Now and time.Since takes three reads where two Clock calls take
// two (a read costs about 50 ns on a 2-vCPU Xeon VM, time.Now about
// 85 ns).
func Clock() time.Duration { return time.Since(clockBase) }

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	h.buckets[bucketFor(d)].Add(1)
}

// Load atomically reads the bucket counts.
func (h *Histogram) Load() HistBuckets {
	var out HistBuckets
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// HistBuckets is a plain (snapshot) bucket vector; index semantics
// match Histogram.
type HistBuckets [NumBuckets]uint64

// SparseBuckets lists a bucket vector's non-empty buckets as [index,
// count] pairs in index order. Snapshots hold their histograms in this
// form: they carry one per size class and op (a series of snapshots
// many), and a latency histogram fills a few dozen of the NumBuckets.
type SparseBuckets [][2]uint64

// Sparse returns b's non-empty buckets.
func (b *HistBuckets) Sparse() SparseBuckets {
	var out SparseBuckets
	for i, c := range b {
		if c != 0 {
			out = append(out, [2]uint64{uint64(i), c})
		}
	}
	return out
}

// Dense expands s into a bucket vector, dropping pairs whose index is
// out of range.
func (s SparseBuckets) Dense() HistBuckets {
	var b HistBuckets
	for _, p := range s {
		if p[0] < NumBuckets {
			b[p[0]] += p[1]
		}
	}
	return b
}

// Observe adds one observation directly to the snapshot vector (same
// bucket mapping as Histogram.Record). For single-goroutine
// accumulation, e.g. the census's live-age buckets.
func (b *HistBuckets) Observe(d time.Duration) {
	b[bucketFor(d)]++
}

// Add accumulates o into b.
func (b *HistBuckets) Add(o HistBuckets) {
	for i := range b {
		b[i] += o[i]
	}
}

// Sub subtracts o from b (clamping at zero so a racy baseline cannot
// produce wrapped counts).
func (b *HistBuckets) Sub(o HistBuckets) {
	for i := range b {
		if b[i] >= o[i] {
			b[i] -= o[i]
		} else {
			b[i] = 0
		}
	}
}

// Count returns the total number of observations.
func (b HistBuckets) Count() uint64 {
	var n uint64
	for _, c := range b {
		n += c
	}
	return n
}

// BucketMid returns a representative nanosecond value for bucket i:
// the value itself for the exact buckets, else the midpoint of the
// bucket's range.
func BucketMid(i int) uint64 {
	low, width := bucketLow(i)
	return low + width/2
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1) in
// nanoseconds: the representative value of the bucket containing the
// ceil(q*count)-th observation. Returns 0 on an empty histogram.
func (b HistBuckets) Quantile(q float64) uint64 {
	total := b.Count()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum uint64
	for i, c := range b {
		cum += c
		if cum >= target {
			return BucketMid(i)
		}
	}
	return BucketMid(NumBuckets - 1)
}

// Max returns the representative value of the highest non-empty
// bucket (an upper-bucket estimate of the maximum observation).
func (b HistBuckets) Max() uint64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if b[i] != 0 {
			return BucketMid(i)
		}
	}
	return 0
}
