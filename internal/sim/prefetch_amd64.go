package sim

import "unsafe"

// Prefetch asks the CPU to start loading the cache line at p (PREFETCHT0): a
// hint, which faults on no address and changes nothing a program can observe
// but time. Each use is a call (Go cannot inline assembly); see DESIGN.md.
//
//go:noescape
func Prefetch(p unsafe.Pointer)
