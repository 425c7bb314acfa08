package exp

import (
	"reflect"
	"testing"

	"faircc/internal/metrics"
	"faircc/internal/net"
)

// TestIncastReceiverRelabel is the cheap case of the metamorphic check:
// results do not depend on host numbering. The paper's 16-1 incast with the
// receiver at host 16 (as runIncast builds it), at host 0 and at host 7,
// with the same flow ids and start times, gives exactly the same completion
// records, Jain series and receiver-port queue series. It covers every
// variant of the paper's HPCC and Swift runs, each on the lossless star and
// the lossy fabric.
func TestIncastReceiverRelabel(t *testing.T) {
	cfg := Config{Seed: 1, Workers: 1}
	in := paperIncast(16)
	p := starParams(in.senders)
	vs := append(paperRun("hpcc", 16, nil).variants(cfg, p), paperRun("swift", 16, nil).variants(cfg, p)...)
	type namedFabric struct {
		name   string
		fabric fabric
	}
	fabrics := []namedFabric{{"lossless", nil}, {"lossy", lossyFabric}}

	type result struct {
		records     []metrics.FlowRecord
		jain, queue []metrics.Point
	}
	run := func(v variant, fb namedFabric, recv int) result {
		var jain, queue *metrics.Series
		nw, err := simulate(cfg, v.label, func(nw *net.Network) {
			jain, queue = buildIncast(nw, v, in, fb.fabric, recv)
		})
		if err != nil {
			t.Fatalf("%s %s, receiver at host %d: %v", fb.name, v.label, recv, err)
		}
		return result{metrics.CollectFinished(nw), jain.Points, queue.Points}
	}
	for _, fb := range fabrics {
		for _, v := range vs {
			want := run(v, fb, in.senders)
			if len(want.records) != in.senders {
				t.Fatalf("%s %s: %d records, want %d", fb.name, v.label, len(want.records), in.senders)
			}
			for _, recv := range []int{0, 7} {
				got := run(v, fb, recv)
				for _, c := range []struct {
					what      string
					got, want any
				}{
					{"completion records", got.records, want.records},
					{"Jain series", got.jain, want.jain},
					{"receiver queue series", got.queue, want.queue},
				} {
					if !reflect.DeepEqual(c.got, c.want) {
						t.Errorf("%q %s, receiver at host %d: %s differ from the receiver at host %d",
							fb.name, v.label, recv, c.what, in.senders)
					}
				}
			}
		}
	}
}
