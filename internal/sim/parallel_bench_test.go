package sim

import (
	"fmt"
	"testing"
)

// BenchmarkMailboxSendDrain measures the cross-shard handoff path in
// isolation: append into an outbox, merge-sort the inbox at the barrier,
// schedule into the receiving engine, and execute — the full per-event
// overhead a cross-shard packet pays over a local one.
func BenchmarkMailboxSendDrain(b *testing.B) {
	engines := []*Engine{NewEngine(), NewEngine()}
	mail := NewMailboxes(2)
	p := NewParallel(engines, mail, ParallelConfig{Window: 1})
	out := mail.Outbox(0, 1)
	nop := Func(func() {})
	const batch = 256 // events exchanged per epoch in a busy run
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		m := batch
		if b.N-done < m {
			m = b.N - done
		}
		for i := 0; i < m; i++ {
			out.Send(Time(done+i), nop)
		}
		p.drainPhase(1)
		for engines[1].Step() {
		}
		done += m
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEpochBarrier measures the synchronization floor: epochs that
// execute a single event each, so nearly all time goes to the two barrier
// crossings per epoch across k parked workers. This is the fixed cost a
// sharded run pays per window, and what skip-ahead amortizes.
func BenchmarkEpochBarrier(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			engines := make([]*Engine, k)
			for i := range engines {
				engines[i] = NewEngine()
			}
			mail := NewMailboxes(k)
			n := 0
			var tick func()
			tick = func() {
				if n++; n < b.N {
					engines[0].After(1000, tick)
				}
			}
			engines[0].At(0, tick)
			// Pin the pool to k goroutines: the default would collapse to
			// GOMAXPROCS and this benchmark exists to price the k-worker
			// rendezvous, not the claim loop.
			p := NewParallel(engines, mail, ParallelConfig{Window: 1, Workers: k})
			b.ResetTimer()
			if err := p.Run(); err != nil {
				b.Fatal(err)
			}
			if n != b.N {
				b.Fatalf("executed %d events, want %d", n, b.N)
			}
			b.ReportMetric(float64(p.Epochs())/b.Elapsed().Seconds(), "epochs/sec")
		})
	}
}
