package exp

import (
	"reflect"
	"testing"

	"faircc/internal/net"
	"faircc/internal/topo"
)

// pfcFabric enables PFC at the given per-ingress pause threshold (resume
// at half of it) and caps every switch egress at buf bytes (0 =
// unbounded). simulate rejects any run on it that tail-drops.
func pfcFabric(pause, buf int64) fabric {
	return func(nw *net.Network, st *topo.Star) {
		nw.PFCPauseBytes = pause
		for _, sp := range st.Switch.Ports() {
			sp.SetBuffer(buf)
		}
	}
}

// TestPFCIdleOnPaperIncast: at realistic 512 KB / 256 KB per-ingress pause
// and resume thresholds, HPCC- and Swift-family control keep the paper's
// 16-1 incast out of the pause regime. No pause is sent, and every dc
// variant's completion records, Jain series and queue series equal those
// of the run on unbounded buffers without PFC: congestion control, not PFC,
// bounds the queues, as lossless-datacenter operation requires.
func TestPFCIdleOnPaperIncast(t *testing.T) {
	cfg := Config{Seed: 1, Workers: 1}
	in := paperIncast(16)
	setup := pfcFabric(512_000, 0)
	for _, v := range dcVariants(starParams(in.senders)) {
		lossless, err := runIncast(cfg, v, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		paused, err := runIncast(cfg, v, in, setup)
		if err != nil {
			t.Fatal(err)
		}
		if n := paused.stats.PFCPauses; n != 0 {
			t.Errorf("%s: %d PFC pauses, want none", v.label, n)
		}
		if !reflect.DeepEqual(paused.records, lossless.records) || !reflect.DeepEqual(paused.jain, lossless.jain) ||
			!reflect.DeepEqual(paused.queue, lossless.queue) {
			t.Errorf("%s: records, Jain or queue series differ with PFC on", v.label)
		}
	}
}
