//go:build !amd64

package sim

import "unsafe"

// Prefetch is a no-op off amd64: the same simulation, with its misses.
func Prefetch(unsafe.Pointer) {}
