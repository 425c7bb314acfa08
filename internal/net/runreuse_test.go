package net_test

import (
	"math/rand"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/cc/hpcc"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
)

// TestShardFlowRunReuse runs 2 400 short flows on a 32-host fat-tree twice,
// once reusing run slots and once retiring every slot at its finish, and
// requires the same result, flow by flow. HPCC on a wire that drops ACKs
// stresses the reuse rule where a slot can still be reached after
// its flow finished: a flow that lost its final ACK times out and leaves
// duplicate data and stale ACKs in the fabric, and a flow's pending RTO
// outlives its finish. It runs sequentially and on two shards, where a
// flow's receiver side may live on the other shard than the free list its
// slot returns to.
func TestShardFlowRunReuse(t *testing.T) {
	const flows = 2400
	ftCfg := topo.DefaultFatTree().Scaled(2, 2, 8)
	hosts := ftCfg.NumHosts()
	specs := make([]net.FlowSpec, flows)
	for i := range specs {
		// Three of every four flows go to one of four hot receivers, so
		// queues build and HPCC's windows move.
		src, dst := i%hosts, (i*7+3)%hosts
		if i%4 != 0 {
			dst = (i / 4 % 4) * 8
		}
		if dst == src {
			dst = (dst + 1) % hosts
		}
		specs[i] = net.FlowSpec{ID: i + 1, Src: src, Dst: dst,
			Size: int64(1_000*(1+i%12) + i%5*100), Start: sim.Time(i) * 150 * sim.Nanosecond}
	}
	type variant struct {
		name  string
		algo  func() cc.Algorithm
		setup func(nw *net.Network)
	}
	variants := []variant{
		{"hpcc-lossy", func() cc.Algorithm { return hpcc.New(hpcc.DefaultConfig()) }, func(nw *net.Network) {
			nw.WireLoss = func(r *rand.Rand, kind net.Kind, _ int, _ int64) bool {
				return kind == net.Ack && r.Float64() < 0.02
			}
		}},
	}
	type result struct {
		fct, finishedAt []sim.Time
		timeouts        int
		stats           net.NetworkStats
	}
	run := func(t *testing.T, v variant, shards int, retire bool) result {
		t.Helper()
		eng := sim.NewEngine()
		nw := net.New(eng, 1)
		ft := topo.NewFatTree(nw, ftCfg)
		if shards > 1 {
			nw.Shard(ft.ShardMap(shards))
		}
		v.setup(nw)
		if retire {
			net.RetireRuns(nw)
		}
		for _, spec := range specs {
			nw.AddFlow(spec, v.algo())
		}
		// Every flow finishes within a few RTOs; a slot reused too early may
		// corrupt a flow so that it never does.
		const horizon = 20 * sim.Millisecond
		if shards > 1 {
			for _, e := range nw.ShardEngines() {
				e.At(horizon, func() { panic("flows still running at the horizon") })
			}
			if err := nw.NewParallel().Run(); err != nil {
				t.Fatal(err)
			}
		} else {
			for !nw.AllFinished() && eng.Step() && eng.Now() < horizon {
			}
		}
		if !nw.AllFinished() {
			t.Fatal("flows did not finish")
		}
		if err := nw.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		var res result
		for i := range nw.NumFlows() {
			f := nw.Flow(i)
			res.fct = append(res.fct, f.FCT())
			res.finishedAt = append(res.finishedAt, f.FinishedAt)
			if f.Timeouts > 0 {
				res.timeouts++
			}
		}
		res.stats = nw.Stats()
		return res
	}
	for _, v := range variants {
		for _, shards := range []int{1, 2} {
			name := v.name
			if shards > 1 {
				name += "-2-shards"
			}
			t.Run(name, func(t *testing.T) {
				ref, got := run(t, v, shards, true), run(t, v, shards, false)
				if ref.stats.FlowRuns != flows {
					t.Fatalf("the reference carved %d run slots for %d flows", ref.stats.FlowRuns, flows)
				}
				for i := range specs {
					if got.fct[i] != ref.fct[i] || got.finishedAt[i] != ref.finishedAt[i] {
						t.Fatalf("flow %d: FCT %v finished at %v reusing run slots, %v at %v retiring them",
							specs[i].ID, got.fct[i], got.finishedAt[i], ref.fct[i], ref.finishedAt[i])
					}
				}
				runs := got.stats.FlowRuns
				got.stats.FlowRuns = ref.stats.FlowRuns
				if got.stats != ref.stats {
					t.Fatalf("network stats differ:\nreusing  %+v\nretiring %+v", got.stats, ref.stats)
				}
				if got.timeouts == 0 || got.stats.DupAcks == 0 {
					t.Fatalf("%d flows timed out and %d duplicate ACKs arrived: the retire rule went untested",
						got.timeouts, got.stats.DupAcks)
				}
				// A flow that timed out keeps its slot; every other slot may be
				// reused once its timeout has fired.
				if runs >= flows/2 || runs < int64(got.timeouts) {
					t.Fatalf("%d run slots carved for %d flows, %d of which timed out", runs, flows, got.timeouts)
				}
				t.Logf("%d run slots carved for %d flows, %d of which timed out", runs, flows, got.timeouts)
			})
		}
	}
}
