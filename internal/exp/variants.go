package exp

import (
	"faircc/internal/cc"
	"faircc/internal/cc/hpcc"
	"faircc/internal/cc/swift"
	"faircc/internal/cc/timely"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
)

// algoMaker builds a fresh per-flow congestion-control instance.
type algoMaker func() cc.Algorithm

// variant pairs a legend label with its maker.
type variant struct {
	label string
	make  algoMaker
}

// pathParams captures the topology constants protocol variants are sized
// from: the network's minimum BDP (VAI's token threshold) and the Swift
// flow-scaling window appropriate for the topology.
type pathParams struct {
	minBDPBytes  float64
	minBDPDelay  sim.Time // delay a min-BDP queue adds at line rate
	maxScalePkts float64  // Swift FBS max target-scaling window
}

// probeParams sizes the variants for the topology build makes, from the
// path between the two hosts it returns: the network's shortest, whose BDP
// is the paper's VAI token threshold, "the minimum BDP of the network,
// which is about 50KB" — a value rounded *down* from the exact 62.5 KB BDP
// of its 5 us, 100 Gb/s network. The margin matters: a joining flow dumps
// roughly one BDP of queue, and a threshold at or above that level mints
// tokens only for incumbent flows (whose packets queue on top of the dump
// and see more backlog), which is asymmetric and self-reinforcing. We apply
// the same 0.8x margin to the probed BDP. fbsPkts is Swift FBS's max
// target-scaling window.
func probeParams(fbsPkts float64, build func(*net.Network) (src, dst *net.Host)) pathParams {
	nw := net.New(sim.NewEngine(), 0)
	src, dst := build(nw)
	_, baseRTT, minBw, err := nw.ProbePath(net.FlowSpec{ID: 1, Src: src.NodeID(), Dst: dst.NodeID(), Size: 1})
	if err != nil {
		panic(err) // the topology we just built is always probeable
	}
	minBDP := 0.8 * minBw / 8 * baseRTT.Seconds()
	return pathParams{
		minBDPBytes:  minBDP,
		minBDPDelay:  sim.Time(minBDP * 8 * 1e12 / minBw),
		maxScalePkts: fbsPkts,
	}
}

// starParams sizes the variants for the senders-to-1 star: max FBS scaling
// window 50 packets (the paper lowers it from 100 because windows are
// smaller there).
func starParams(senders int) pathParams {
	return probeParams(50, func(nw *net.Network) (src, dst *net.Host) {
		st := topo.NewStar(nw, senders+1, hostRate, linkDelay)
		return st.Hosts[0], st.Hosts[senders]
	})
}

// dcParams sizes the variants for the fat-tree (FBS window 100) from its
// shortest, same-ToR path.
func dcParams(ftCfg topo.FatTreeConfig) pathParams {
	return probeParams(100, func(nw *net.Network) (src, dst *net.Host) {
		ft := topo.NewFatTree(nw, ftCfg)
		return ft.Hosts[0], ft.Hosts[1]
	})
}

// hpccBaselines returns the paper's Sec. III HPCC variants: default,
// 1 Gb/s AI, and probabilistic feedback.
func hpccBaselines() []variant {
	return []variant{
		{label: "HPCC", make: func() cc.Algorithm { return hpcc.New(hpcc.DefaultConfig()) }},
		{label: "HPCC 1Gbps", make: func() cc.Algorithm {
			c := hpcc.DefaultConfig()
			c.AIBps = 1e9
			return hpcc.New(c)
		}},
		{label: "HPCC Probabilistic", make: func() cc.Algorithm {
			c := hpcc.DefaultConfig()
			c.Probabilistic = true
			return hpcc.New(c)
		}},
	}
}

// hpccVAISF returns the paper's HPCC VAI SF variant sized for the
// topology.
func hpccVAISF(p pathParams) variant {
	return variant{label: "HPCC VAI SF", make: func() cc.Algorithm {
		return hpcc.New(hpcc.VAISFConfig(p.minBDPBytes))
	}}
}

// swiftBaselines returns the Swift variants of Sec. III.
func swiftBaselines(p pathParams) []variant {
	return []variant{
		{label: "Swift", make: func() cc.Algorithm { return swift.New(swift.DefaultConfig(p.maxScalePkts)) }},
		{label: "Swift 1Gbps", make: func() cc.Algorithm {
			c := swift.DefaultConfig(p.maxScalePkts)
			c.AIBps = 1e9
			return swift.New(c)
		}},
		{label: "Swift Probabilistic", make: func() cc.Algorithm {
			c := swift.DefaultConfig(p.maxScalePkts)
			c.Probabilistic = true
			return swift.New(c)
		}},
	}
}

// swiftVAISF returns Swift VAI SF (no FBS, Sec. VI-B).
func swiftVAISF(p pathParams) variant {
	return variant{label: "Swift VAI SF", make: func() cc.Algorithm {
		return swift.New(swift.VAISFConfig(p.minBDPDelay))
	}}
}

// variantsByKey indexes every single-protocol variant by the name the
// dc and incast experiments take in Config (fairsim -protocol / -algo),
// sized for the topology by p like the figures' own variants.
func variantsByKey(p pathParams) map[string]variant {
	hp, sw, tm := hpccBaselines(), swiftBaselines(p), timelyVariants(p)
	return map[string]variant{
		"hpcc": hp[0], "hpcc-1g": hp[1], "hpcc-prob": hp[2], "hpcc-vaisf": hpccVAISF(p),
		"swift": sw[0], "swift-1g": sw[1], "swift-prob": sw[2], "swift-vaisf": swiftVAISF(p),
		"timely": tm[0], "timely-vaisf": tm[1],
	}
}

// timelyVariants returns TIMELY with and without the paper's mechanisms,
// demonstrating their applicability beyond HPCC and Swift.
func timelyVariants(p pathParams) []variant {
	return []variant{
		{label: "Timely", make: func() cc.Algorithm { return timely.New(timely.Config{}) }},
		{label: "Timely VAI SF", make: func() cc.Algorithm {
			return timely.New(timely.VAISFConfig(p.minBDPDelay))
		}},
	}
}

// swiftHAIVariant returns Swift with the hyper-AI extension the paper
// suggests in Sec. VI-B.
func swiftHAIVariant(p pathParams) variant {
	return variant{label: "Swift HAI", make: func() cc.Algorithm {
		c := swift.DefaultConfig(p.maxScalePkts)
		c.HyperAI = true
		return swift.New(c)
	}}
}
