package exp

import (
	"faircc/internal/cc"
	"faircc/internal/cc/dcqcn"
	"faircc/internal/cc/dctcp"
	"faircc/internal/cc/hpcc"
	"faircc/internal/cc/swift"
	"faircc/internal/cc/timely"
	"faircc/internal/sim"
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

// starParams sizes parameters for the single-switch incast topology:
// max FBS scaling window 50 packets (the paper lowers it from 100 because
// windows are smaller there).
func starParams(minBDPBytes float64, lineRate float64) pathParams {
	return pathParams{
		minBDPBytes:  minBDPBytes,
		minBDPDelay:  sim.Time(minBDPBytes * 8 * 1e12 / lineRate),
		maxScalePkts: 50,
	}
}

// dcParams sizes parameters for the fat-tree topology (FBS window 100).
func dcParams(minBDPBytes float64, lineRate float64) pathParams {
	p := starParams(minBDPBytes, lineRate)
	p.maxScalePkts = 100
	return p
}

// hpccBaselines returns the paper's Sec. III HPCC variants: default,
// 1 Gb/s AI, and probabilistic feedback.
func hpccBaselines() []variant {
	return []variant{
		{"HPCC", func() cc.Algorithm { return hpcc.New(hpcc.DefaultConfig()) }},
		{"HPCC 1Gbps", func() cc.Algorithm {
			c := hpcc.DefaultConfig()
			c.AIBps = 1e9
			return hpcc.New(c)
		}},
		{"HPCC Probabilistic", func() cc.Algorithm {
			c := hpcc.DefaultConfig()
			c.Probabilistic = true
			return hpcc.New(c)
		}},
	}
}

// hpccVAISF returns the paper's HPCC VAI SF variant sized for the
// topology.
func hpccVAISF(p pathParams) variant {
	return variant{"HPCC VAI SF", func() cc.Algorithm {
		return hpcc.New(hpcc.VAISFConfig(p.minBDPBytes))
	}}
}

// swiftBaselines returns the Swift variants of Sec. III.
func swiftBaselines(p pathParams) []variant {
	return []variant{
		{"Swift", func() cc.Algorithm { return swift.New(swift.DefaultConfig(p.maxScalePkts)) }},
		{"Swift 1Gbps", func() cc.Algorithm {
			c := swift.DefaultConfig(p.maxScalePkts)
			c.AIBps = 1e9
			return swift.New(c)
		}},
		{"Swift Probabilistic", func() cc.Algorithm {
			c := swift.DefaultConfig(p.maxScalePkts)
			c.Probabilistic = true
			return swift.New(c)
		}},
	}
}

// swiftVAISF returns Swift VAI SF (no FBS, Sec. VI-B).
func swiftVAISF(p pathParams) variant {
	return variant{"Swift VAI SF", func() cc.Algorithm {
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
		"dcqcn": dcqcnVariant(), "timely": tm[0], "timely-vaisf": tm[1],
	}
}

// dcqcnVariant returns the DCQCN baseline (Sec. II's probabilistic-
// feedback protocol). Runs using it must configure RED marking on switch
// ports and a CNP interval on the network.
func dcqcnVariant() variant {
	return variant{"DCQCN", func() cc.Algorithm { return dcqcn.New(dcqcn.DefaultConfig()) }}
}

// dctcpVariant returns the DCTCP baseline (the origin of congestion-
// extent-scaled decreases, Sec. III-A). Runs using it must configure step
// marking on switch ports.
func dctcpVariant() variant {
	return variant{"DCTCP", func() cc.Algorithm { return dctcp.New(dctcp.DefaultConfig()) }}
}

// timelyVariants returns TIMELY with and without the paper's mechanisms,
// demonstrating their applicability beyond HPCC and Swift.
func timelyVariants(p pathParams) []variant {
	return []variant{
		{"Timely", func() cc.Algorithm { return timely.New(timely.DefaultConfig()) }},
		{"Timely VAI SF", func() cc.Algorithm {
			return timely.New(timely.VAISFConfig(p.minBDPDelay))
		}},
	}
}

// swiftHAIVariant returns Swift with the hyper-AI extension the paper
// suggests in Sec. VI-B.
func swiftHAIVariant(p pathParams) variant {
	return variant{"Swift HAI", func() cc.Algorithm {
		c := swift.DefaultConfig(p.maxScalePkts)
		c.HAIAfter = 5
		c.HAIMult = 10
		return swift.New(c)
	}}
}
