package net_test

import (
	"fmt"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
)

type lineRate struct{}

func (lineRate) Init(*cc.Env) cc.Control {
	return cc.Control{WindowBytes: 1e9, RateBps: 100e9}
}
func (lineRate) OnAck(cc.Feedback) cc.Control {
	return cc.Control{WindowBytes: 1e9, RateBps: 100e9}
}

// addFlow is AddFlow with its panic as an error.
func addFlow(nw *net.Network, spec net.FlowSpec) (f *net.Flow, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return nw.AddFlow(spec, lineRate{}), nil
}

// TestRouteSummaryAgreesWithWalk: AddFlow checks routes from the switches'
// route summaries and the start walks the path, so the two must agree on
// every topology the repository builds. For every ordered pair of distinct
// hosts AddFlow accepts exactly when ProbePath succeeds; once the flow has
// started, its Hops and BaseRTT are the probe's; and the maximum AddFlow
// recorded is the largest started BaseRTT. Flows go in one source host at
// a time, each batch run to its end, so run slots are reused.
func TestRouteSummaryAgreesWithWalk(t *testing.T) {
	fatTree := func(cfg topo.FatTreeConfig) func(*net.Network) []*net.Host {
		return func(nw *net.Network) []*net.Host { return topo.NewFatTree(nw, cfg).Hosts }
	}
	cases := []struct {
		name  string
		build func(*net.Network) []*net.Host
	}{
		{"paper fat-tree", fatTree(topo.DefaultFatTree())},
		{"fat-tree 2x2x2", fatTree(topo.DefaultFatTree().Scaled(2, 2, 2))},
		{"fat-tree 2x2x8", fatTree(topo.DefaultFatTree().Scaled(2, 2, 8))},
		{"fat-tree 3x2x4", fatTree(topo.DefaultFatTree().Scaled(3, 2, 4))},
		{"star", func(nw *net.Network) []*net.Host { return topo.NewStar(nw, 17, 100e9, sim.Microsecond).Hosts }},
		{"dumbbell", func(nw *net.Network) []*net.Host {
			d := topo.NewDumbbell(nw, topo.DefaultDumbbell())
			return append(d.Senders, d.Receivers...)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nw := net.New(sim.NewEngine(), 1)
			hosts := c.build(nw)
			id := 0
			var largest sim.Time
			for _, src := range hosts {
				type probed struct {
					f    *net.Flow
					hops int
					rtt  sim.Time
				}
				var flows []probed
				for _, dst := range hosts {
					if dst == src {
						continue
					}
					id++
					spec := net.FlowSpec{ID: id, Src: src.NodeID(), Dst: dst.NodeID(), Size: 1, Start: nw.Eng.Now()}
					hops, rtt, _, perr := nw.ProbePath(spec)
					f, aerr := addFlow(nw, spec)
					if (perr == nil) != (aerr == nil) {
						t.Fatalf("flow %d: ProbePath error %v, AddFlow panic %v", id, perr, aerr)
					}
					if f != nil {
						flows = append(flows, probed{f, hops, rtt})
					}
				}
				for !nw.AllFinished() && nw.Eng.Step() {
				}
				for _, p := range flows {
					if !p.f.Started() || p.f.Hops() != p.hops || p.f.BaseRTT() != p.rtt {
						t.Fatalf("flow %d: started %v with %d hops and base RTT %v, ProbePath %d and %v",
							p.f.Spec.ID, p.f.Started(), p.f.Hops(), p.f.BaseRTT(), p.hops, p.rtt)
					}
					largest = max(largest, p.f.BaseRTT())
				}
			}
			if got := net.MaxBaseRTT(nw); got != largest {
				t.Errorf("recorded maximum base RTT %v, want the largest started %v", got, largest)
			}
		})
	}
}
