//go:build !amd64

package main

// ticks falls back to the monotonic clock where no cycle counter is
// read directly.
func ticks() int64 { return nowNS() }
