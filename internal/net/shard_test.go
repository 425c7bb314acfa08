package net

import (
	"strings"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// shardChain rebuilds the multihop chain topology and splits it across
// two shards between switch sA and sA+1 (node ids: h0=0, h1=1, switches
// 2..). It returns the network ready for AddFlow.
func shardChain(t *testing.T, bws []float64, cut int) (*Network, []*Switch) {
	t.Helper()
	_, nw, sws := chain(t, bws)
	n := len(sws)
	assign := make([]int, 2+n)
	assign[1] = 1 // h1 hangs off the last switch
	for i := range sws {
		if i > cut {
			assign[2+i] = 1
		}
	}
	nw.Shard(assign, 2)
	return nw, sws
}

// TestShardCrossTrafficMatchesSequential runs the same deterministic
// (PRNG-free) two-flow workload on a 3-switch chain sequentially and cut
// across two shards, and requires bit-identical completion times: with no
// random draws and no same-timestamp cross-flow ties, the mailbox handoff
// must reproduce the sequential event order exactly.
func TestShardCrossTrafficMatchesSequential(t *testing.T) {
	bws := []float64{gbps100, 40e9, 40e9, gbps100}
	type result struct{ fwd, rev sim.Time }
	run := func(shards bool, cut int) result {
		t.Helper()
		var nw *Network
		var eng *sim.Engine
		if shards {
			nw, _ = shardChain(t, bws, cut)
		} else {
			eng, nw, _ = chain(t, bws)
		}
		algo := func() *fixedAlgo {
			return &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
		}
		fwd := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 300_000}, algo())
		rev := nw.AddFlow(FlowSpec{ID: 2, Src: 1, Dst: 0, Size: 200_000, Start: 5 * usec}, algo())
		if shards {
			if err := nw.NewParallel().Run(); err != nil {
				t.Fatal(err)
			}
		} else {
			eng.Run()
		}
		if !fwd.Finished() || !rev.Finished() {
			t.Fatal("flows did not finish")
		}
		if err := nw.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		return result{fwd.FinishedAt, rev.FinishedAt}
	}
	seq := run(false, 0)
	for cut := 0; cut < 2; cut++ {
		par := run(true, cut)
		if par != seq {
			t.Fatalf("cut after switch %d: FCTs %+v, sequential %+v", cut, par, seq)
		}
	}
}

// TestShardWindowLookahead checks the parallel window is the minimum
// propagation delay over cross-shard links only — intra-shard links may
// be faster without shrinking the lookahead.
func TestShardWindowLookahead(t *testing.T) {
	eng := sim.NewEngine()
	nw := New(eng, 1)
	h0, h1 := nw.AddHost(), nw.AddHost()
	s0, s1 := nw.AddSwitch(), nw.AddSwitch()
	p0, _ := nw.Connect(s0, h0, gbps100, 100*sim.Nanosecond) // intra-shard
	s0.AddRoute(h0.NodeID(), p0)
	up, down := nw.Connect(s0, s1, gbps100, 3*usec) // cross-shard
	s0.AddRoute(h1.NodeID(), up)
	s1.AddRoute(h0.NodeID(), down)
	p1, _ := nw.Connect(s1, h1, gbps100, 100*sim.Nanosecond) // intra-shard
	s1.AddRoute(h1.NodeID(), p1)

	if nw.window != 0 {
		t.Fatalf("unsharded window = %v, want 0", nw.window)
	}
	nw.Shard([]int{0, 1, 0, 1}, 2)
	if nw.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", nw.Shards())
	}
	if nw.window != 3*usec {
		t.Fatalf("window = %v, want %v (the cross-shard link delay)", nw.window, 3*usec)
	}
	if got := len(nw.ShardEngines()); got != 2 {
		t.Fatalf("ShardEngines() has %d engines, want 2", got)
	}
}

// TestShardValidation checks every misuse Shard refuses: calling it too
// late (after flows or scheduled events), twice, or with a malformed
// assignment.
func TestShardValidation(t *testing.T) {
	build := func() (*sim.Engine, *Network) {
		eng := sim.NewEngine()
		nw := New(eng, 1)
		st := nw.AddSwitch()
		h := nw.AddHost()
		sp, _ := nw.Connect(st, h, gbps100, usec)
		st.AddRoute(h.NodeID(), sp)
		return eng, nw
	}
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: expected panic", name)
				return
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, want) {
				t.Errorf("%s: panic %v, want substring %q", name, r, want)
			}
		}()
		fn()
	}

	mustPanic("after AddFlow", "before AddFlow", func() {
		_, nw := build()
		h2 := nw.AddHost()
		_ = h2
		nw.AddFlow(FlowSpec{ID: 1, Src: 1, Dst: 1, Size: 1}, &fixedAlgo{})
		nw.Shard([]int{0, 0, 0}, 1)
	})
	mustPanic("after scheduling", "before scheduling", func() {
		eng, nw := build()
		eng.At(0, func() {})
		nw.Shard([]int{0, 0}, 1)
	})
	mustPanic("k < 1", "< 1", func() {
		_, nw := build()
		nw.Shard([]int{0, 0}, 0)
	})
	mustPanic("short assignment", "covers", func() {
		_, nw := build()
		nw.Shard([]int{0}, 2)
	})
	mustPanic("out of range", "want [0,2)", func() {
		_, nw := build()
		nw.Shard([]int{0, 5}, 2)
	})
	mustPanic("double shard", "already sharded", func() {
		_, nw := build()
		nw.Shard([]int{0, 1}, 2)
		nw.Shard([]int{0, 1}, 2)
	})
	mustPanic("zero-delay cross link", "zero propagation delay", func() {
		eng := sim.NewEngine()
		nw := New(eng, 1)
		s0, s1 := nw.AddSwitch(), nw.AddSwitch()
		nw.Connect(s0, s1, gbps100, 0)
		nw.Shard([]int{0, 1}, 2)
	})

	// k == 1 is a no-op, not an error: the network stays sequential.
	_, nw := build()
	nw.Shard([]int{0, 0}, 1)
	if nw.Shards() != 1 {
		t.Fatalf("k=1 Shard left %d shards", nw.Shards())
	}
}

// TestShardRebindForgetsSerializationLanes: a port that has already
// transmitted holds, in its wire-size memo, delay lanes of the engine it
// was built on. Network.Shard must drop them with the propagation lane, or
// the port's next serialization end is scheduled on the engine it left and
// runs on the wrong shard's clock.
func TestShardRebindForgetsSerializationLanes(t *testing.T) {
	eng, nw, _ := chain(t, []float64{gbps100, gbps100}) // h0=0, h1=1, one switch=2
	pt := nw.Hosts()[1].Port()
	pt.sendPFC(Resume) // a standard-size frame: binds a lane of eng
	eng.Run()
	if pt.ser[1].lane == nil {
		t.Fatal("a standard-size transmission bound no serialization lane")
	}
	nw.Shard([]int{0, 1, 0}, 2)
	pt.sendPFC(Resume)
	if old, moved := eng.Pending(), nw.ShardEngines()[1].Pending(); old != 0 || moved != 1 {
		t.Fatalf("after Shard the port's transmission left %d event(s) pending on its old engine and %d on its new one, want 0 and 1", old, moved)
	}
}
