package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced child takes a CPU profile of itself and this file turns it
// into one share per layer. The standard library writes the pprof format
// but has no public reader for it, so parseProfile decodes the few
// protobuf fields the split needs: each sample's stack, as function
// names from the leaf outwards, and its CPU nanoseconds.

// stackSample is one profile sample: Stack[0] is the function that was
// executing.
type stackSample struct {
	Stack []string
	Ns    int64
}

// layerRule sends a function to a bucket when its name starts with
// prefix and, if recv is set, continues with one of recv. First match
// wins, so the narrower rules of a package come before its catch-all.
type layerRule struct {
	bucket string
	prefix string
	recv   []string
}

var layerRules = []layerRule{
	{"sim.parallel", "faircc/internal/sim.", []string{"(*Parallel)", "(*barrier)", "(*Outbox)", "(*Mailboxes)", "(*xbox)", "NewParallel", "sortRun"}},
	{"sim", "faircc/internal/sim.", nil},
	{"net.port", "faircc/internal/net.", []string{"(*Port)", "(*queue)"}},
	{"net.switch", "faircc/internal/net.", []string{"(*Switch)", "ecmpHash"}},
	{"net.transport", "faircc/internal/net.", []string{"(*Flow)", "(*Host)", "(*ccGate)"}},
	{"net.other", "faircc/internal/net.", nil},
	{"cc", "faircc/internal/cc/", nil},
	{"cc", "faircc/internal/core.", nil},
	{"metrics", "faircc/internal/metrics.", nil},
	{"metrics", "faircc/internal/stats.", nil},
	{"metrics", "faircc/internal/trace.", nil},
	{"setup", "faircc/internal/workload.", nil},
	{"setup", "faircc/internal/topo.", nil},
	{"bench", "main.", nil},
}

// shareBuckets lists every bucket classify can return, in print order.
// Their shares sum to 100.
var shareBuckets = []string{
	"sim", "sim.parallel", "net.port", "net.switch", "net.transport", "net.other",
	"cc", "metrics", "setup", "bench", "runtime.gc", "runtime.mem", "runtime.other", "other",
}

// Frames that mark a runtime sample as garbage collection or as memory
// management done on the mutator's behalf (allocation, copying, clearing,
// slice growth). Any frame of the stack may match: the leaf of an
// allocation is usually deep inside mallocgc.
var (
	gcFrames = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject", "runtime.wbBufFlush", "runtime.(*gcWork)", "runtime.(*sweepLocked)"}
	memFrames = []string{"runtime.mallocgc", "runtime.memmove", "runtime.memclr", "runtime.growslice",
		"runtime.newobject", "runtime.makeslice", "runtime.typedmemmove", "runtime.typedslicecopy"}
)

func layerOf(fn string) (string, bool) {
	for _, r := range layerRules {
		rest, ok := strings.CutPrefix(fn, r.prefix)
		if !ok {
			continue
		}
		if r.recv == nil || hasAnyPrefix(rest, r.recv) {
			return r.bucket, true
		}
	}
	return "", false
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/")
}

// classify buckets one sample. A runtime leaf is garbage collection or
// memory management if the stack says so; anything else is charged to
// the innermost frame that belongs to a layer, so math, sort and runtime
// helpers count toward the layer that called them. A runtime stack with
// no layer frame (scheduler, idle, signal handling) is runtime.other,
// any other stack is other.
func classify(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if isRuntime(stack[0]) {
		for _, fn := range stack {
			if hasAnyPrefix(fn, gcFrames) {
				return "runtime.gc"
			}
		}
		for _, fn := range stack {
			if hasAnyPrefix(fn, memFrames) {
				return "runtime.mem"
			}
		}
	}
	for _, fn := range stack {
		if b, ok := layerOf(fn); ok {
			return b
		}
	}
	if isRuntime(stack[0]) {
		return "runtime.other"
	}
	return "other"
}

// cpuShares returns each bucket's percentage of the profile's CPU time.
func cpuShares(samples []stackSample) map[string]float64 {
	shares := make(map[string]float64, len(shareBuckets))
	for _, b := range shareBuckets {
		shares[b] = 0
	}
	var total int64
	for _, s := range samples {
		shares[classify(s.Stack)] += float64(s.Ns)
		total += s.Ns
	}
	if total == 0 {
		return shares
	}
	for b := range shares {
		shares[b] *= 100 / float64(total)
	}
	return shares
}

// protoFields walks the fields of one protobuf message. Varint and fixed
// values arrive in v, length-delimited payloads in data.
func protoFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		tag, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field tag")
		}
		b = b[n:]
		field, wire := int(tag>>3), tag&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints appends a repeated integer field's values, whether the
// writer packed them into one payload or sent them one by one.
func repeatedVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped pprof CPU profile (perftools.profiles
// .Profile) into stack samples. The last value of a sample is its CPU
// time in nanoseconds, as runtime/pprof writes it.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs []uint64
		ns   int64
	}
	var (
		strs     []string
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost inlined call first
		raws     []rawSample
	)
	err = protoFields(raw, func(field int, _ uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			err := protoFields(data, func(f int, v uint64, d []byte) (err error) {
				switch f {
				case 1:
					s.locs, err = repeatedVarints(s.locs, v, d)
				case 2:
					vals, err = repeatedVarints(vals, v, d)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.ns = int64(vals[len(vals)-1])
			}
			raws = append(raws, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			err := protoFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	samples := make([]stackSample, 0, len(raws))
	for _, rs := range raws {
		s := stackSample{Ns: rs.ns}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					s.Stack = append(s.Stack, strs[idx])
				}
			}
		}
		samples = append(samples, s)
	}
	return samples, nil
}
