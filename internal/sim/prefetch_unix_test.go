//go:build unix

package sim

import (
	"syscall"
	"testing"
	"unsafe"
)

// One byte past the last a process may touch — where a lookahead that ran
// off the end of a packet slab would point — a load dies with SIGSEGV and a
// prefetch must not: not at the guard page, and not at the last line before
// it, whose second line lies in the guard page.
func TestPrefetchOfAGuardPageDoesNotFault(t *testing.T) {
	const page = 4096
	b, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(b)
	if err := syscall.Mprotect(b[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	Prefetch(unsafe.Pointer(&b[page]))
	Prefetch(unsafe.Pointer(&b[page-64]))
	b[page-1] = 1 // the page before it is still ours
}
