package cc_test

import (
	"testing"
	"unsafe"

	"faircc/internal/cc/hpcc"
	"faircc/internal/cc/swift"
	"faircc/internal/cc/timely"
)

// TestAlgorithmSizes pins what one flow's algorithm costs from AddFlow on.
// Each keeps a pointer to its flow's cc.Env, not a 72-byte copy: that puts
// HPCC in the allocator's 256-byte size class and Swift in the 288-byte
// one, where a copy had them at 320 and 352.
func TestAlgorithmSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the sizes are for 64-bit words")
	}
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"hpcc", unsafe.Sizeof(hpcc.HPCC{}), 256},
		{"swift", unsafe.Sizeof(swift.Swift{}), 288},
		{"timely", unsafe.Sizeof(timely.Timely{}), 248},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.size, c.max)
		}
	}
}
