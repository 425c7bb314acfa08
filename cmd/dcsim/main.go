// Command dcsim runs datacenter fat-tree simulations with CDF-driven
// Poisson traffic and reports FCT slowdown statistics by flow-size class,
// comparing a protocol with and without the paper's VAI + Sampling
// Frequency mechanisms.
//
// Usage:
//
//	dcsim -workload hadoop -protocol hpcc -pods 2 -tors 2 -hosts 8 -ms 5
//	dcsim -workload mix -protocol swift -oversub 4 -ms 2
//	dcsim -k16 -ms 1 -shards 8
//
// Workloads: hadoop, websearch, storage, mix (websearch+storage).
// -oversub N thins the ToR uplinks to an N:1 host-to-fabric ratio; -k16
// swaps in the 4096-host k=16-style Clos.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"faircc"
)

func main() {
	var (
		workloadName = flag.String("workload", "hadoop", "hadoop, websearch, storage, or mix")
		protocol     = flag.String("protocol", "hpcc", "hpcc or swift")
		pods         = flag.Int("pods", 2, "fat-tree pods")
		tors         = flag.Int("tors", 2, "ToR (and Agg) switches per pod")
		hosts        = flag.Int("hosts", 8, "hosts per ToR")
		ms           = flag.Int("ms", 5, "traffic duration, milliseconds")
		load         = flag.Float64("load", 0.5, "offered load as a fraction of host line rate")
		seed         = flag.Int64("seed", 1, "simulation seed")
		shards       = flag.Int("shards", 0, "partition the fat-tree into N parallel shards (0/1 = sequential engine)")
		distFile     = flag.String("dist", "", "flow-size distribution file (HPCC-artifact format; overrides -workload)")
		oversub      = flag.Float64("oversub", 0, "ToR-layer oversubscription ratio, e.g. 4 for 4:1 (0 = the paper's 1:1 fabric)")
		k16          = flag.Bool("k16", false, "use the 4096-host k=16-style Clos instead of -pods/-tors/-hosts")
		coalesce     = flag.Bool("ack-coalesce", false, "enable receiver-side ACK coalescing (diverges from the paper's per-packet ACK model)")
	)
	flag.Parse()

	ftCfg := faircc.DefaultFatTree().Scaled(*pods, *tors, *hosts)
	if *k16 {
		ftCfg = faircc.K16FatTree()
	}
	// Reject what would otherwise hang traffic generation (a zero arrival
	// rate never reaches the duration; one host has no destination) or
	// silently run something other than what was asked for.
	var bad error
	switch err := ftCfg.Validate(); {
	case err != nil:
		bad = err
	case ftCfg.NumHosts() < 2:
		bad = fmt.Errorf("need at least 2 hosts, have %d", ftCfg.NumHosts())
	case !(*load > 0):
		bad = fmt.Errorf("-load must be positive, got %v", *load)
	case *ms <= 0:
		bad = fmt.Errorf("-ms must be positive, got %d", *ms)
	case *shards < 0:
		bad = fmt.Errorf("-shards must not be negative, got %d", *shards)
	case !(*oversub >= 0):
		bad = fmt.Errorf("-oversub must not be negative, got %v", *oversub)
	}
	if bad != nil {
		fmt.Fprintln(os.Stderr, "dcsim:", bad)
		os.Exit(2)
	}
	if *oversub > 0 {
		ftCfg = ftCfg.Oversubscribed(*oversub)
	}
	duration := faircc.Time(*ms) * faircc.Millisecond
	name := *workloadName
	if *distFile != "" {
		name = *distFile
	}
	specs, err := genTraffic(name, ftCfg.NumHosts(), *load, duration, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcsim:", err)
		os.Exit(2)
	}
	fabric := "fat-tree"
	if r := ftCfg.OversubscriptionRatio(); r != 1 {
		fabric = fmt.Sprintf("%.3g:1-oversubscribed fat-tree", r)
	}
	fmt.Printf("%s on %d-host %s, %s traffic, %.0f%% load, %v: %d flows\n\n",
		*protocol, ftCfg.NumHosts(), fabric, *workloadName, *load*100, duration, len(specs))

	for _, vaisf := range []bool{false, true} {
		label := *protocol
		if vaisf {
			label += " VAI SF"
		}
		recs, rs, err := run(*protocol, vaisf, ftCfg, specs, *seed, *shards, *coalesce)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcsim:", err)
			os.Exit(1)
		}
		fmt.Printf("--- %s ---\n", label)
		report(recs)
		fmt.Printf("  fabric: %.2f GB switched, deepest queue %d KB\n",
			float64(rs.net.FabricTxBytes)/1e9, rs.net.MaxQueuePeak/1000)
		fmt.Printf("  engine: %s\n\n", rs.run)
	}
}

func genTraffic(name string, hosts int, load float64, duration faircc.Time, seed int64) ([]faircc.FlowSpec, error) {
	var cdfs []*faircc.CDF
	switch name {
	case "hadoop":
		cdfs = []*faircc.CDF{faircc.HadoopCDF()}
	case "websearch":
		cdfs = []*faircc.CDF{faircc.WebSearchCDF()}
	case "storage":
		cdfs = []*faircc.CDF{faircc.StorageCDF()}
	case "mix":
		cdfs = []*faircc.CDF{faircc.WebSearchCDF(), faircc.StorageCDF()}
	default:
		// Treat anything else as a distribution file path.
		cdf, err := faircc.LoadCDF(name)
		if err != nil {
			return nil, fmt.Errorf("unknown workload or unreadable distribution %q: %w", name, err)
		}
		cdfs = []*faircc.CDF{cdf}
	}
	var specs []faircc.FlowSpec
	id := 1
	for i, cdf := range cdfs {
		r := rand.New(rand.NewSource(seed + int64(i)))
		lambda := load / float64(len(cdfs)) * 100e9 * float64(hosts) / (8 * cdf.Mean())
		t := faircc.Time(0)
		for {
			t += faircc.Time(r.ExpFloat64() / lambda * 1e12)
			if t >= duration {
				break
			}
			src := r.Intn(hosts)
			dst := src
			for dst == src {
				dst = r.Intn(hosts)
			}
			specs = append(specs, faircc.FlowSpec{
				ID: id, Src: src, Dst: dst,
				Size: int64(math.Max(1, cdf.Sample(r))), Start: t,
			})
			id++
		}
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Start < specs[j].Start })
	return specs, nil
}

// runOut bundles one simulation's measurement snapshots.
type runOut struct {
	net faircc.NetworkStats
	run faircc.RunStats
}

func run(protocol string, vaisf bool, ftCfg faircc.FatTreeConfig, specs []faircc.FlowSpec, seed int64, shards int, coalesce bool) ([]faircc.FlowRecord, runOut, error) {
	eng := faircc.NewEngine()
	nw := faircc.NewNetwork(eng, seed)
	nw.AckCoalesce = coalesce
	ft := faircc.NewFatTree(nw, ftCfg)
	if shards > 1 {
		assign, k := ft.ShardMap(shards)
		nw.Shard(assign, k)
	}

	const minBDP = 42_000.0
	minBDPDelay := faircc.Time(minBDP * 8 * 1e12 / 100e9)
	maker := func() faircc.Algorithm {
		switch {
		case protocol == "hpcc" && vaisf:
			return faircc.NewHPCCVAISF(minBDP)
		case protocol == "hpcc":
			return faircc.NewHPCC()
		case vaisf:
			return faircc.NewSwiftVAISF(minBDPDelay)
		default:
			return faircc.NewSwift(100)
		}
	}
	if protocol != "hpcc" && protocol != "swift" {
		return nil, runOut{}, fmt.Errorf("unknown protocol %q", protocol)
	}
	for _, spec := range specs {
		nw.AddFlow(spec, maker())
	}
	start := time.Now()
	var rs faircc.RunStats
	if nw.Shards() > 1 {
		pr := nw.NewParallel()
		if err := pr.Run(); err != nil {
			return nil, runOut{}, err
		}
		rs = faircc.CollectShardedRunStats(nw, pr.Epochs())
	} else {
		eng.Run()
		rs = faircc.CollectRunStats(eng, nw)
	}
	rs.Finish(time.Since(start))
	if !nw.AllFinished() {
		return nil, runOut{}, fmt.Errorf("flows did not finish")
	}
	if err := nw.CheckConservation(); err != nil {
		return nil, runOut{}, err
	}
	return faircc.CollectFinishedFlows(nw), runOut{net: nw.Stats(), run: rs}, nil
}

func report(recs []faircc.FlowRecord) {
	classes := []struct {
		name     string
		min, max int64
	}{
		{"<10KB", 0, 10_000},
		{"10KB-100KB", 10_000, 100_000},
		{"100KB-1MB", 100_000, 1_000_000},
		{">1MB", 1_000_000, 1 << 62},
	}
	fmt.Printf("  %-12s %8s %10s %10s %10s\n", "size class", "flows", "p50", "p99", "p99.9")
	for _, c := range classes {
		var xs []float64
		for _, r := range recs {
			if r.Size >= c.min && r.Size < c.max {
				xs = append(xs, r.Slowdown)
			}
		}
		if len(xs) == 0 {
			continue
		}
		fmt.Printf("  %-12s %8d %9.1fx %9.1fx %9.1fx\n", c.name, len(xs),
			percentile(xs, 50), percentile(xs, 99), percentile(xs, 99.9))
	}
	fmt.Println()
}

func percentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
