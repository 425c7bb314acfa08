package sim

import "unsafe"

// Prefetch asks the CPU to start loading the two cache lines at p and p+64
// (PREFETCHT0 each): a hint, which faults on no address and changes nothing
// a program can observe but time. Each use is one call; see DESIGN.md.
//
//go:noescape
func Prefetch(p unsafe.Pointer)
