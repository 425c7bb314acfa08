package faircc_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"faircc"
)

// ExampleRunExperiment is README's library quick start, compiled and run:
// `fairsim -exp incast -algo hpcc-vaisf -senders 2 -size 1048576` as a
// library call. A nil error already means every flow finished and the
// run conserved bytes and ACKs; the finish-time series has one point per
// flow.
func ExampleRunExperiment() {
	cfg := faircc.DefaultExperimentConfig()
	cfg.IncastAlgo = "hpcc-vaisf"
	cfg.IncastSenders = 2
	cfg.IncastFlowBytes = 1 << 20
	res, err := faircc.RunExperiment("incast", cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, s := range res.Series {
		fmt.Println(s.Label)
	}
	fmt.Printf("%d of %d flows finished\n", len(res.Series[2].X), cfg.IncastSenders)
	// Output:
	// Jain fairness index
	// queue depth (KB)
	// finish time (us) by start time
	// 2 of 2 flows finished
}

// TestRunExperimentRejectsBeforeBuilding: an unknown name or an invalid
// Config is an error from both entry points, and no simulation was started
// to find that out (a started one reports progress at least once, Done).
func TestRunExperimentRejectsBeforeBuilding(t *testing.T) {
	started := false
	bad := faircc.DefaultExperimentConfig()
	bad.IncastSenders = -1
	bad.Progress = func(faircc.ProgressUpdate) { started = true }
	ok := faircc.DefaultExperimentConfig()
	ok.Progress = bad.Progress
	for _, c := range []struct {
		name string
		cfg  faircc.Config
		msg  string
	}{
		{"no-such-figure", ok, "unknown experiment"},
		{"incast", bad, "IncastSenders"},
	} {
		_, err := faircc.RunExperiment(c.name, c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("RunExperiment(%q): error %v, want one naming %q", c.name, err, c.msg)
		}
		res, stats, err := faircc.RunExperimentWithStats(c.name, c.cfg)
		if err == nil || res != nil || stats != nil {
			t.Errorf("RunExperimentWithStats(%q) = %v, %v, %v; want only an error", c.name, res, stats, err)
		}
	}
	if started {
		t.Error("a rejected run started a simulation")
	}
}

// TestExperimentNames: the registry is listed sorted, and the deleted ACK
// model's experiment is not in it.
func TestExperimentNames(t *testing.T) {
	names := faircc.ExperimentNames()
	if !slices.IsSorted(names) {
		t.Errorf("ExperimentNames() = %v: not sorted", names)
	}
	if slices.Contains(names, "ack-coalesce") {
		t.Error("ack-coalesce is still registered")
	}
}

// TestFacadeExperiments exercises the experiment registry through the
// facade.
func TestFacadeExperiments(t *testing.T) {
	names := faircc.ExperimentNames()
	if len(names) < 20 {
		t.Fatalf("only %d experiments registered", len(names))
	}
	res, err := faircc.RunExperiment("fig4", faircc.DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("fig4 returned no series")
	}
}

// TestFacadeAlgorithms runs every protocol Config.IncastAlgo names through
// the facade: two flows into one receiver, to completion (an unfinished
// flow is an error), with the run's own counters to show for it.
func TestFacadeAlgorithms(t *testing.T) {
	for _, algo := range []string{"hpcc", "hpcc-1g", "hpcc-prob", "hpcc-vaisf",
		"swift", "swift-1g", "swift-prob", "swift-vaisf", "timely", "timely-vaisf"} {
		t.Run(algo, func(t *testing.T) {
			cfg := faircc.DefaultExperimentConfig()
			cfg.IncastAlgo, cfg.IncastSenders, cfg.IncastFlowBytes = algo, 2, 300_000
			_, stats, err := faircc.RunExperimentWithStats("incast", cfg)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Runs != 1 || stats.DataDelivered == 0 || stats.DataDelivered != stats.AcksSent {
				t.Fatalf("%s: %v", algo, stats)
			}
		})
	}
}
