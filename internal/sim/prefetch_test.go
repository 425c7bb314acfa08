package sim

import (
	"testing"
	"unsafe"
)

type countingHandler struct{ fired int }

func (c *countingHandler) Fire() { c.fired++ }

// The lookahead prefetch rests on one assumption about the runtime: the
// second word of an interface holding a pointer-shaped value is that value.
// A Go release that changes the layout must fail here, on every GOARCH,
// not turn the prefetch into a fetch of the wrong line.
func TestHandlerDataIsTheObjectAddress(t *testing.T) {
	obj := &countingHandler{}
	if got := handlerData(obj); got != unsafe.Pointer(obj) {
		t.Fatalf("pointer handler: data word %p, object at %p", got, obj)
	}
	f := Func(func() { obj.fired++ })
	if got, want := handlerData(f), *(*unsafe.Pointer)(unsafe.Pointer(&f)); got != want {
		t.Fatalf("Func handler: data word %p, func value %p", got, want)
	}
	if got := handlerData(nil); got != nil {
		t.Fatalf("nil handler: data word %p", got)
	}
}

// A prefetch is a hint: it faults on no address — nil here, and address
// 64, where its second line lies. (The guard-page case, where a load would,
// is in prefetch_unix_test.go.)
func TestPrefetchNeverFaults(t *testing.T) { Prefetch(nil) }
