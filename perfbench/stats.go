package main

import (
	"math"
	"sort"
	"time"
)

// epoch anchors the benchmark clock. time.Since on a value carrying a
// monotonic reading reads only the monotonic clock, which is the
// cheapest timestamp the standard library offers.
var epoch = time.Now()

// nowNS returns monotonic nanoseconds since epoch.
func nowNS() int64 { return int64(time.Since(epoch)) }

// tickEpoch is the tick count at (nearly) the instant of epoch.
var tickEpoch = ticks()

// nsPerTick converts ticks to nanoseconds, measured against the
// monotonic clock over the whole run so far (seconds, so the error of
// the two epoch reads is negligible).
func nsPerTick() float64 {
	return float64(nowNS()) / float64(ticks()-tickEpoch)
}

// rng is splitmix64: a few arithmetic instructions per draw, so the
// load generator adds little to the ~100 ns operations it drives, and
// the same seed always yields the same stream.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) rng {
	r := rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// below returns a uniform value in [0, n) for n < 2^32.
func (r *rng) below(n uint64) uint64 { return (r.next() >> 32 * n) >> 32 }

// unit returns a uniform float64 in [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// quantile returns the q-quantile of xs (nearest rank), sorting xs in
// place; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean returns the mean of the middle half of xs (the interquartile
// mean), sorting xs in place; 0 for an empty slice.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := xs[len(xs)/4 : len(xs)-len(xs)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// batchQuantiles turns per-batch durations into per-op times (scale
// is ns per op per unit of duration) and returns their median and 99th
// percentile.
func batchQuantiles(lat []uint32, scale float64) (p50, p99 float64) {
	xs := make([]float64, len(lat))
	for i, d := range lat {
		xs[i] = float64(d) * scale
	}
	return quantile(xs, 0.5), quantile(xs, 0.99)
}

// ratio returns a/b, or 0 when b is 0 (a count with no base).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
