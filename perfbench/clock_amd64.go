package main

// ticks reads the CPU's time-stamp counter: a few nanoseconds, against
// tens for the monotonic clock, so a span around a ~100 ns call is
// mostly the call. Spans are timed in ticks and converted with
// nsPerTick.
func ticks() int64
