// Package faircc reproduces "Fast Convergence to Fairness for Reduced
// Long Flow Tail Latency in Datacenter Networks" (John Snyder and Alvin R.
// Lebeck, IPDPS 2022): a deterministic packet-level datacenter network
// simulator, the HPCC, Swift and TIMELY congestion-control
// protocols, the paper's Variable Additive Increase and Sampling Frequency
// mechanisms, and a registry of experiments that regenerate every figure
// of the paper's evaluation.
//
// This package is one page over internal/exp, and the only public way to
// get numbers: an experiment name plus a Config. Every simulation behind
// it is built, driven and checked (every flow finished, bytes and ACKs
// conserved, counters collected) by the same code the fairsim command
// runs, so a library run and a command-line run cannot drift apart:
//
//	cfg := faircc.DefaultExperimentConfig()
//	cfg.IncastAlgo, cfg.IncastSenders = "hpcc-vaisf", 2
//	res, stats, err := faircc.RunExperimentWithStats("incast", cfg)
//
// is `fairsim -exp incast -algo hpcc-vaisf -senders 2`. See DESIGN.md for
// the experiment index and EXPERIMENTS.md for recorded paper-versus-
// measured results.
package faircc

import (
	"faircc/internal/exp"
	"faircc/internal/metrics"
)

type (
	// Config selects scale, seed, parallelism and every experiment
	// parameter; the zero value of a parameter means the preset, and
	// delays and durations are simulated time in picoseconds.
	Config = exp.Config
	// Result is an experiment's regenerated data: labelled series plus
	// notes with the derived headline numbers.
	Result = exp.Result
	// Manifest is the JSON provenance record fairsim -manifest emits next
	// to an experiment's CSV; decode one with encoding/json.
	Manifest = exp.Manifest
	// RunStats is the run-level observability record: engine and network
	// counters summed over an experiment's simulations, wall-clock rates
	// and process memory.
	RunStats = metrics.RunStats
	// ProgressUpdate is one periodic report from a running simulation,
	// the argument of Config.Progress.
	ProgressUpdate = exp.ProgressUpdate
)

// ExperimentNames lists all registered experiments, sorted.
func ExperimentNames() []string { return exp.Names() }

// DefaultExperimentConfig returns a medium-scale, seed-1 configuration.
func DefaultExperimentConfig() Config { return exp.DefaultConfig() }

// RunExperiment runs a registered experiment by name (fig1a … fig13,
// ablate-*, incast, dc, …). An unknown name or an invalid Config is an
// error before anything is built; so is a run that left a flow unfinished
// or broke a conservation invariant.
func RunExperiment(name string, cfg Config) (*Result, error) { return exp.Run(name, cfg) }

// RunExperimentWithStats runs an experiment like RunExperiment and also
// returns the aggregated RunStats of every simulation it executed.
func RunExperimentWithStats(name string, cfg Config) (*Result, *RunStats, error) {
	return exp.RunWithStats(name, cfg)
}
