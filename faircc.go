// Package faircc reproduces "Fast Convergence to Fairness for Reduced
// Long Flow Tail Latency in Datacenter Networks" (John Snyder and Alvin R.
// Lebeck, IPDPS 2022) as a Go library: a deterministic packet-level
// datacenter network simulator, the HPCC, Swift and DCQCN congestion-
// control protocols, the paper's Variable Additive Increase and Sampling
// Frequency mechanisms, and a registry of experiments that regenerate
// every figure of the paper's evaluation.
//
// # Quick start
//
//	eng := faircc.NewEngine()
//	nw := faircc.NewNetwork(eng, 1)
//	star := faircc.NewStar(nw, 17, 100e9, faircc.Microsecond)
//	f := nw.AddFlow(faircc.FlowSpec{
//	        ID: 1, Src: star.Hosts[0].NodeID(), Dst: star.Hosts[16].NodeID(),
//	        Size: 1 << 20,
//	}, faircc.NewHPCCVAISF(50_000))
//	eng.Run()
//	fmt.Println(f.FCT(), f.Slowdown())
//
// Or run a whole figure:
//
//	res, err := faircc.RunExperiment("fig10", faircc.DefaultExperimentConfig())
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-versus-measured results.
package faircc

import (
	"faircc/internal/cc"
	"faircc/internal/cc/dcqcn"
	"faircc/internal/cc/dctcp"
	"faircc/internal/cc/hpcc"
	"faircc/internal/cc/swift"
	"faircc/internal/cc/timely"
	"faircc/internal/exp"
	"faircc/internal/fluid"
	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/stats"
	"faircc/internal/topo"
	"faircc/internal/trace"
	"faircc/internal/workload"
)

// Version identifies the library release.
const Version = "1.0.0"

// Core simulation types, re-exported for downstream use.
type (
	// Time is simulated time in picoseconds.
	Time = sim.Time
	// Engine is the discrete-event scheduler.
	Engine = sim.Engine
	// Network assembles hosts, switches, links and flows.
	Network = net.Network
	// FlowSpec describes a flow to inject.
	FlowSpec = net.FlowSpec
	// Flow is a running flow's state and results.
	Flow = net.Flow
	// Port is a link endpoint (exposes queue depth and tx counters).
	Port = net.Port
	// Host is an end host.
	Host = net.Host
	// Switch is an output-queued switch.
	Switch = net.Switch
	// REDConfig configures ECN marking for DCQCN runs.
	REDConfig = net.REDConfig
	// Algorithm is a sender-side congestion-control protocol.
	Algorithm = cc.Algorithm
	// Control is an algorithm's output: pacing rate and window.
	Control = cc.Control
	// Feedback is the per-ACK input to an algorithm.
	Feedback = cc.Feedback

	// Star is the single-switch incast topology.
	Star = topo.Star
	// FatTree is the paper's three-layer datacenter topology.
	FatTree = topo.FatTree
	// FatTreeConfig sizes a fat-tree.
	FatTreeConfig = topo.FatTreeConfig
	// Dumbbell is the heterogeneous-RTT shared-bottleneck topology.
	Dumbbell = topo.Dumbbell
	// DumbbellConfig sizes a dumbbell and its per-class access delays.
	DumbbellConfig = topo.DumbbellConfig
	// SenderGroup is one RTT class of dumbbell senders.
	SenderGroup = topo.SenderGroup

	// ExperimentConfig controls experiment scale, seed and parallelism.
	ExperimentConfig = exp.Config
	// ExperimentResult is a figure's regenerated data.
	ExperimentResult = exp.Result

	// FlowRecord is one completed flow's FCT measurement.
	FlowRecord = metrics.FlowRecord
	// FCTRecorder collects FlowRecords from a Network.
	FCTRecorder = metrics.FCTRecorder
	// StreamingAccumulator summarizes a value stream with bounded memory
	// while keeping percentiles exact below its retention limit.
	StreamingAccumulator = metrics.Accumulator
	// ClassCollector streams per-RTT-class FCT and slowdown distributions
	// from flow-finish callbacks without retaining per-flow records.
	ClassCollector = metrics.ClassCollector
	// ClassDist is one class's streamed distribution snapshot.
	ClassDist = metrics.ClassDist

	// CDF is a flow-size distribution.
	CDF = stats.CDF

	// HPCCConfig, SwiftConfig, DCQCNConfig, TimelyConfig and DCTCPConfig
	// parameterize the protocols.
	HPCCConfig   = hpcc.Config
	SwiftConfig  = swift.Config
	DCQCNConfig  = dcqcn.Config
	TimelyConfig = timely.Config
	DCTCPConfig  = dctcp.Config

	// TraceRecorder captures flow-level events for debugging.
	TraceRecorder = trace.Recorder
	// TraceKind selects which events a TraceRecorder captures.
	TraceKind = trace.Kind

	// NetworkStats, SwitchStats and PortStats are measurement snapshots.
	NetworkStats = net.NetworkStats
	SwitchStats  = net.SwitchStats
	PortStats    = net.PortStats

	// EventID is a generation-stamped handle to a scheduled event;
	// cancelling a stale handle is a guaranteed no-op.
	EventID = sim.EventID
	// Parallel is the barrier-synchronized runner for sharded networks
	// (see FatTree.ShardMap, Network.Shard and Network.NewParallel).
	Parallel = sim.Parallel
	// EngineStats is the engine's lifetime counter snapshot (events
	// executed/scheduled/cancelled, pending, peak pending, slot allocs).
	EngineStats = sim.EngineStats
	// RunStats is the run-level observability record: engine and network
	// counters plus wall-clock rates and process memory.
	RunStats = metrics.RunStats
	// ExperimentProgress is one periodic update from a running experiment
	// simulation (see ExperimentConfig.Progress).
	ExperimentProgress = exp.ProgressUpdate
	// ExperimentManifest is the JSON provenance record fairsim -manifest
	// emits next to an experiment's CSV.
	ExperimentManifest = exp.Manifest

	// FluidConfig parameterizes the Sec. IV-B fluid model; FluidPoint is
	// one integration sample.
	FluidConfig = fluid.Config
	FluidPoint  = fluid.Point
)

// Time unit constants.
const (
	Picosecond  = sim.Picosecond
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewEngine returns a discrete-event engine with the clock at zero.
func NewEngine() *Engine { return sim.NewEngine() }

// NewNetwork returns an empty network over eng, seeded deterministically.
func NewNetwork(eng *Engine, seed int64) *Network { return net.New(eng, seed) }

// NewStar builds the paper's incast topology: hosts around one switch.
func NewStar(nw *Network, hosts int, linkBps float64, delay Time) *Star {
	return topo.NewStar(nw, hosts, linkBps, delay)
}

// NewFatTree builds a three-layer fat-tree with up/down ECMP routing.
func NewFatTree(nw *Network, cfg FatTreeConfig) *FatTree { return topo.NewFatTree(nw, cfg) }

// DefaultFatTree returns the paper's 320-host datacenter topology.
func DefaultFatTree() FatTreeConfig { return topo.DefaultFatTree() }

// K16FatTree returns the 4096-host k=16-style Clos (16 pods, 8 ToR and 8
// Agg per pod, 64 spines, 32 hosts per ToR); combine with
// FatTreeConfig.Oversubscribed to thin the ToR uplinks.
func K16FatTree() FatTreeConfig { return topo.K16FatTree() }

// NewDumbbell builds a two-switch dumbbell whose sender groups reach a
// shared bottleneck over per-group access delays (the RTT-heterogeneity
// topology).
func NewDumbbell(nw *Network, cfg DumbbellConfig) *Dumbbell { return topo.NewDumbbell(nw, cfg) }

// DefaultDumbbell returns the datacenter-edge RTT-unfairness dumbbell:
// equal-rate fast (1 us) and slow (25 us) access groups into a 100 Gb/s
// bottleneck.
func DefaultDumbbell() DumbbellConfig { return topo.DefaultDumbbell() }

// WANEdgeDumbbell returns the WAN-edge variant: a 10 ms slow group and a
// 10 Gb/s bottleneck, exercising RTO-scale delay heterogeneity.
func WANEdgeDumbbell() DumbbellConfig { return topo.WANEdgeDumbbell() }

// NewHPCC returns a default-parameter HPCC instance (one per flow).
func NewHPCC() Algorithm { return hpcc.New(hpcc.DefaultConfig()) }

// NewHPCCWith returns an HPCC instance with a custom configuration.
func NewHPCCWith(cfg HPCCConfig) Algorithm { return hpcc.New(cfg) }

// NewHPCCVAISF returns HPCC with the paper's Variable Additive Increase
// and Sampling Frequency mechanisms; minBDPBytes is the network's minimum
// bandwidth-delay product (the VAI token threshold, ~50 KB at 100 Gb/s).
func NewHPCCVAISF(minBDPBytes float64) Algorithm {
	return hpcc.New(hpcc.VAISFConfig(minBDPBytes))
}

// NewSwift returns default Swift with flow-based scaling capped at
// maxScalePkts (the paper uses 50 on the incast topology, 100 in the
// datacenter).
func NewSwift(maxScalePkts float64) Algorithm { return swift.New(swift.DefaultConfig(maxScalePkts)) }

// NewSwiftWith returns a Swift instance with a custom configuration.
func NewSwiftWith(cfg SwiftConfig) Algorithm { return swift.New(cfg) }

// NewSwiftVAISF returns Swift with VAI and Sampling Frequency;
// minBDPDelay is the queueing delay a minimum-BDP backlog adds at line
// rate (4 us at 100 Gb/s for 50 KB).
func NewSwiftVAISF(minBDPDelay Time) Algorithm {
	return swift.New(swift.VAISFConfig(minBDPDelay))
}

// NewDCQCN returns a DCQCN instance; configure RED marking on switch
// ports and Network.CNPInterval for it to receive congestion feedback.
func NewDCQCN() Algorithm { return dcqcn.New(dcqcn.DefaultConfig()) }

// NewTimely returns a TIMELY instance (RTT-gradient congestion control).
func NewTimely() Algorithm { return timely.New(timely.DefaultConfig()) }

// NewTimelyVAISF returns TIMELY with the paper's mechanisms attached,
// demonstrating their generality beyond HPCC and Swift.
func NewTimelyVAISF(minBDPDelay Time) Algorithm {
	return timely.New(timely.VAISFConfig(minBDPDelay))
}

// NewDCTCP returns a DCTCP instance; configure step marking on switch
// ports with DCTCPMarkingAt.
func NewDCTCP() Algorithm { return dctcp.New(dctcp.DefaultConfig()) }

// DCTCPMarkingAt returns the switch ECN configuration for DCTCP's
// deterministic step marking at kBytes of queue.
func DCTCPMarkingAt(kBytes int64) REDConfig { return dctcp.MarkingAt(kBytes) }

// Trace kinds for AttachTrace.
const (
	TraceSend    = trace.Send
	TraceDeliver = trace.Deliver
	TraceControl = trace.Control
	TraceFinish  = trace.Finish
	TraceAll     = trace.All
)

// AttachTrace subscribes a recorder to a network's flow events. Attach
// before flows start.
func AttachTrace(nw *Network, kinds TraceKind) *TraceRecorder {
	return trace.Attach(nw, kinds)
}

// HadoopCDF, WebSearchCDF and StorageCDF are the evaluation's flow-size
// distributions.
func HadoopCDF() *CDF    { return workload.Hadoop() }
func WebSearchCDF() *CDF { return workload.WebSearch() }
func StorageCDF() *CDF   { return workload.Storage() }

// LoadCDF reads a flow-size distribution file in the HPCC-artifact
// format ("<size_bytes> <cumulative_percent>" per line), so the original
// trace distributions can replace the synthetic ones.
func LoadCDF(path string) (*CDF, error) { return workload.LoadCDF(path) }

// StaggeredIncast builds the paper's incast flow pattern.
func StaggeredIncast(senders []int, dst int, size int64, perGroup int, interval, start Time) []FlowSpec {
	return workload.StaggeredIncast(senders, dst, size, perGroup, interval, start)
}

// RunExperiment runs a registered figure reproduction by name (fig1a …
// fig13, ablate-*, incast-dcqcn).
func RunExperiment(name string, cfg ExperimentConfig) (*ExperimentResult, error) {
	return exp.Run(name, cfg)
}

// RunExperimentWithStats runs an experiment and also returns the
// aggregated RunStats of every simulation it executed (events, events/sec,
// packet counters, wall time, process memory).
func RunExperimentWithStats(name string, cfg ExperimentConfig) (*ExperimentResult, *RunStats, error) {
	return exp.RunWithStats(name, cfg)
}

// CollectRunStats snapshots a finished simulation's engine and network
// counters as a single-run RunStats; call Finish on the result to derive
// wall-clock rates. It serves sequential and sharded runs alike (engine
// counters are summed over the network's shard engines); epochs is
// Parallel.Epochs() after a sharded run and 0 after a sequential one.
func CollectRunStats(nw *Network, epochs uint64) RunStats {
	return metrics.CollectRun(nw, epochs)
}

// CollectFinishedFlows returns completion records for every finished flow
// in AddFlow order. Unlike FCTRecorder it reads flow state after the run,
// so it is the collector to use with sharded parallel runs (finish
// callbacks fire on worker goroutines there).
func CollectFinishedFlows(nw *Network) []FlowRecord {
	return metrics.CollectFinished(nw)
}

// ExperimentNames lists all registered experiments.
func ExperimentNames() []string { return exp.Names() }

// DefaultExperimentConfig returns a medium-scale, seed-1 configuration.
func DefaultExperimentConfig() ExperimentConfig { return exp.DefaultConfig() }

// Jain computes the Jain fairness index of an allocation.
func Jain(xs []float64) float64 { return stats.Jain(xs) }

// JainByClass computes one Jain index per class of an allocation;
// class[i] assigns xs[i] to a class in [0, nClasses).
func JainByClass(xs []float64, class []int, nClasses int) []float64 {
	return stats.JainByClass(xs, class, nClasses)
}

// NewClassCollector returns a streaming per-class FCT collector; classOf
// maps a finished flow to a label index (or -1 to skip), maxExact bounds
// exact retention per distribution (0 = the default).
func NewClassCollector(labels []string, classOf func(*Flow) int, maxExact int) *ClassCollector {
	return metrics.NewClassCollector(labels, classOf, maxExact)
}

// DefaultFluid returns the Fig. 4 fluid-model parameters.
func DefaultFluid() FluidConfig { return fluid.DefaultConfig() }

// IntegrateFluid solves the Sec. IV-B fluid model numerically (RK4) with
// step dt up to tMax nanoseconds.
func IntegrateFluid(cfg FluidConfig, dt, tMax float64) []FluidPoint {
	return fluid.Integrate(cfg, dt, tMax)
}
