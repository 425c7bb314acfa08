package main

import (
	"fmt"
	"math/rand"

	"faircc/internal/cc"
	"faircc/internal/cc/hpcc"
	"faircc/internal/cc/swift"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
	"faircc/internal/workload"
)

// A workload is one closed, deterministic set of simulations: the same
// traffic run back to back under each of its protocol variants. All of
// its inputs are generated in-process from the seed.
type workloadSpec struct {
	name string // why each was chosen: BENCHMARK.json, README.md

	variants []string // subset of variantKeys, run in this order
	// minReps is how many untraced reps one driver run measures at least
	// (more if they add up to less than --seconds): what the workload's
	// run-to-run noise needs within the time the driver allows.
	minReps int

	// Datacenter workloads: Hadoop Poisson traffic at 50% load for
	// duration on a fat-tree, sequential or through shards PDES shards.
	ft       topo.FatTreeConfig
	duration sim.Time
	shards   int
	twin     string // sharded only: the workload with the same traffic on the sequential engine

	// Incast workloads (senders > 0): senders -> 1 staggered incast on a
	// star, flowBytes per flow on average.
	senders   int
	flowBytes int64
}

func (w workloadSpec) incast() bool { return w.senders > 0 }

// variantKeys are the four protocols of the paper's Figs. 10-13, in the
// suffix form the model.* metric names use.
var variantKeys = []string{"hpcc", "hpcc_vaisf", "swift", "swift_vaisf"}

var workloads = []workloadSpec{
	{
		name:     "dc_hadoop32",
		variants: variantKeys,
		minReps:  2,
		ft:       topo.DefaultFatTree().Scaled(2, 2, 8),
		duration: 5 * sim.Millisecond,
	},
	{
		name:     "dc_fabric320",
		variants: []string{"hpcc_vaisf", "swift_vaisf"},
		minReps:  1, // 26 s a rep
		ft:       topo.DefaultFatTree(),
		duration: 1 * sim.Millisecond,
	},
	{
		name:      "incast96",
		variants:  variantKeys,
		minReps:   1, // the interleaved reference alone brings its spread under 1%
		senders:   96,
		flowBytes: 50_000_000,
	},
	{
		name:     "dc_hadoop32_shards2",
		variants: variantKeys,
		minReps:  2,
		ft:       topo.DefaultFatTree().Scaled(2, 2, 8),
		duration: 5 * sim.Millisecond,
		shards:   2,
		twin:     "dc_hadoop32",
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

const (
	dcLoad      = 0.5
	starRate    = 100e9
	starDelay   = 1 * sim.Microsecond
	incastGroup = 2 // flows starting together
	incastEvery = 20 * sim.Microsecond
	// Samplers reschedule themselves up to this simulated time; runs stop
	// when every flow has finished, so a generous horizon costs nothing.
	samplerHorizon = 2 * sim.Second
)

// traffic generates the workload's flow set from the seed. The flow set
// is shared by all variants, so their comparison is paired.
func (w workloadSpec) traffic(seed int64) []net.FlowSpec {
	if !w.incast() {
		hosts := make([]int, w.ft.NumHosts())
		for i := range hosts {
			hosts[i] = i
		}
		return workload.Poisson(workload.PoissonConfig{
			Hosts:    hosts,
			Sizes:    workload.Hadoop(),
			Load:     dcLoad,
			LinkBps:  w.ft.HostBps,
			Duration: w.duration,
			Seed:     seed,
		})
	}
	// Host ids on a star are 0..senders-1 with the receiver last (NewStar
	// adds hosts first). The pattern itself has no randomness; the seed
	// varies each flow's size by up to 4% around flowBytes, which changes
	// the finishing order without changing the amount of work.
	srcs := make([]int, w.senders)
	for i := range srcs {
		srcs[i] = i
	}
	specs := workload.StaggeredIncast(srcs, w.senders, w.flowBytes, incastGroup, incastEvery, 0)
	r := rand.New(rand.NewSource(seed))
	for i := range specs {
		specs[i].Size += int64((r.Float64() - 0.5) * 0.04 * float64(w.flowBytes))
	}
	return specs
}

// pathParams are the topology constants the VAI SF variants are sized
// from, derived exactly as internal/exp does: the minimum BDP of the
// network rounded down by 0.8 (VAI's token threshold), the delay such a
// queue adds at line rate, and Swift's flow-scaling window (50 packets
// on the star, 100 on the fat-tree).
type pathParams struct {
	minBDPBytes  float64
	minBDPDelay  sim.Time
	maxScalePkts float64
}

func (w workloadSpec) pathParams() pathParams {
	nw := net.New(sim.NewEngine(), 0)
	var src, dst int
	rate, scale := starRate, 50.0
	if w.incast() {
		st := topo.NewStar(nw, w.senders+1, starRate, starDelay)
		src, dst = st.Hosts[0].NodeID(), st.Hosts[w.senders].NodeID()
	} else {
		ft := topo.NewFatTree(nw, w.ft)
		src, dst = ft.Hosts[0].NodeID(), ft.Hosts[1].NodeID()
		rate, scale = w.ft.HostBps, 100
	}
	_, baseRTT, _, err := nw.ProbePath(net.FlowSpec{ID: 1, Src: src, Dst: dst, Size: 1})
	if err != nil {
		panic(err) // the topology we just built is always probeable
	}
	minBDP := 0.8 * rate / 8 * baseRTT.Seconds()
	return pathParams{
		minBDPBytes:  minBDP,
		minBDPDelay:  sim.Time(minBDP * 8 * 1e12 / rate),
		maxScalePkts: scale,
	}
}

// algoMaker returns the per-flow algorithm constructor of a variant.
func algoMaker(key string, p pathParams) func() cc.Algorithm {
	switch key {
	case "hpcc":
		return func() cc.Algorithm { return hpcc.New(hpcc.DefaultConfig()) }
	case "hpcc_vaisf":
		return func() cc.Algorithm { return hpcc.New(hpcc.VAISFConfig(p.minBDPBytes)) }
	case "swift":
		return func() cc.Algorithm { return swift.New(swift.DefaultConfig(p.maxScalePkts)) }
	case "swift_vaisf":
		return func() cc.Algorithm { return swift.New(swift.VAISFConfig(p.minBDPDelay)) }
	}
	panic("bench: unknown variant " + key)
}
