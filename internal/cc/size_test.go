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
// one, where a copy had them at 320 and 352. With the paper's fixed
// protocol numbers as constants, not per-flow Config fields (and TIMELY's
// rate floor no per-flow field), HPCC and Swift are 232 bytes and TIMELY
// 176, in the 240- and 176-byte classes, where they were 256, 288 and 248.
func TestAlgorithmSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the sizes are for 64-bit words")
	}
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"hpcc", unsafe.Sizeof(hpcc.HPCC{}), 240},
		{"swift", unsafe.Sizeof(swift.Swift{}), 240},
		{"timely", unsafe.Sizeof(timely.Timely{}), 176},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.size, c.max)
		}
	}
}
