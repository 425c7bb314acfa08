// Command fairsim runs the paper-reproduction experiments by name and
// writes their data series as CSV.
//
// Usage:
//
//	fairsim -list
//	fairsim -exp fig1a [-scale small|medium|large|full] [-seed 1] [-out dir]
//	fairsim -all [-scale medium] [-out results]
//	fairsim -exp fig10 -progress -manifest [-pprof profiles]
//	fairsim -exp incast-lossy -buffer-bytes 150000 -drop-data 5e-4 -drop-ack 5e-4
//	fairsim -exp rtt-unfairness -rtt-slow-delay 100us -rtt-senders 8 -manifest
//	fairsim -exp dc -workload mix -protocol swift -pods 2 -tors 2 -hosts 8 -ms 2 -oversub 4
//	fairsim -exp incast -algo hpcc-vaisf -senders 96 -size 1048576 -out series
//
// Each name is one figure of "Fast Convergence to Fairness for Reduced
// Long Flow Tail Latency in Datacenter Networks" (Snyder & Lebeck, IPDPS
// 2022). Figures that plot the same simulations are views of one run:
// -exp with any of them executes the run once and prints and writes all
// of them (-exp fig10 yields fig10 and fig12). See DESIGN.md for the index.
//
// Observability: -progress prints a periodic sim-time / wall-time /
// events-per-second line per running variant (essential for paper-scale
// runs, which execute hundreds of millions of events); -manifest emits a
// JSON run manifest (params, seed, git-describe, RunStats) next to the
// CSV; -pprof DIR wraps the runs in CPU and heap profiling.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"faircc/internal/exp"
	"faircc/internal/sim"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		list   = flag.Bool("list", false, "list experiment names and exit")
		name   = flag.String("exp", "", "experiment to run (e.g. fig1a)")
		all    = flag.Bool("all", false, "run every registered experiment")
		scale  = flag.String("scale", "medium", "datacenter experiment scale: small, medium, large, or full")
		seed   = flag.Int64("seed", 1, "simulation seed")
		out    = flag.String("out", "", "directory for CSV output (default: stdout summary only)")
		work   = flag.Int("workers", 0, "parallel variant runners (0 = GOMAXPROCS)")
		verify = flag.Bool("verify", false, "check the paper's claims against fresh runs and exit")

		bufBytes = flag.Int64("buffer-bytes", 0, "lossy experiments: per-egress switch buffer in bytes (0 = experiment default)")
		dropData = flag.Float64("drop-data", 0, "lossy experiments: random data-packet wire-loss probability (0 = experiment default)")
		dropAck  = flag.Float64("drop-ack", 0, "lossy experiments: random ACK wire-loss probability (0 = experiment default)")

		rttSlowDelay = flag.Duration("rtt-slow-delay", 0, "rtt-unfairness experiments: slow group's access-link propagation delay (0 = scenario preset)")
		rttSenders   = flag.Int("rtt-senders", 0, "rtt-unfairness experiments: senders per RTT class (0 = scenario preset)")

		workload = flag.String("workload", "", "dc: hadoop, websearch, storage, mix, or a flow-size distribution file in the HPCC-artifact format (default hadoop)")
		protocol = flag.String("protocol", "", "dc: hpcc or swift, run with and without VAI SF (default hpcc)")
		pods     = flag.Int("pods", 0, "dc: fat-tree pods (default: the -scale preset)")
		tors     = flag.Int("tors", 0, "dc: ToR (and Agg) switches per pod (default: the -scale preset)")
		hosts    = flag.Int("hosts", 0, "dc: hosts per ToR (default: the -scale preset)")
		oversub  = flag.Float64("oversub", 0, "dc: ToR-layer oversubscription ratio, e.g. 4 for 4:1 (0 = the paper's 1:1 fabric)")
		ms       = flag.Int("ms", 0, "dc: traffic duration in milliseconds (default: the -scale preset)")
		load     = flag.Float64("load", 0, "dc: offered load as a fraction of host line rate (default: the paper's 0.5)")

		algo    = flag.String("algo", "", "incast: hpcc, hpcc-1g, hpcc-prob, hpcc-vaisf, swift, swift-1g, swift-prob, swift-vaisf, dcqcn, timely or timely-vaisf (default hpcc)")
		senders = flag.Int("senders", 0, "incast: incast degree (default 16)")
		size    = flag.Int64("size", 0, "incast: bytes per flow (default 1000000)")
		group   = flag.Int("group", 0, "incast: flows starting together (default 2)")
		everyUs = flag.Int("every", 0, "incast: microseconds between start groups (default 20)")

		progress = flag.Bool("progress", false, "print periodic sim-time/events-per-sec lines for each run (stderr)")
		every    = flag.Duration("progress-every", time.Second, "target interval between progress lines")
		manifest = flag.Bool("manifest", false, "write <exp>.manifest.json (params, git-describe, RunStats) next to the CSV")
		pprofDir = flag.String("pprof", "", "write cpu.pprof and heap.pprof around the runs into this directory")
	)
	flag.Parse()

	// Exit 2, before anything is built, on a configuration no experiment
	// can run: a duration beyond the picosecond clock (see picos), or one
	// Validate rejects. In Config a zero parameter means "the preset", so a
	// zero given explicitly for one would silently run something other
	// than what was asked for: that is rejected here, where "given" is
	// known.
	var err error
	cfg := exp.Config{
		Seed: *seed, Workers: *work, Scale: *scale,
		BufferBytes: *bufBytes, DropDataProb: *dropData, DropAckProb: *dropAck,
		RTTSlowDelay: picos("rtt-slow-delay", rttSlowDelay.Nanoseconds(), sim.Nanosecond, &err),
		RTTSenders:   *rttSenders,

		DCWorkload: *workload, DCProtocol: *protocol,
		DCPods: *pods, DCToRs: *tors, DCHostsPerToR: *hosts, DCOversub: *oversub,
		DCDuration: picos("ms", int64(*ms), sim.Millisecond, &err), DCLoad: *load,

		IncastAlgo: *algo, IncastSenders: *senders, IncastFlowBytes: *size,
		IncastGroup: *group, IncastEvery: picos("every", int64(*everyUs), sim.Microsecond, &err),
	}
	if err == nil {
		err = cfg.Validate()
	}
	flag.Visit(func(f *flag.Flag) {
		if zeroIsPreset[f.Name] && f.Value.String() == "0" {
			err = fmt.Errorf("-%s 0 would select the preset; omit the flag or give a positive value", f.Name)
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fairsim:", err)
		return 2
	}
	if *progress {
		cfg.Progress = printProgress
		cfg.ProgressEvery = *every
	}

	if *verify {
		failed := 0
		for _, c := range exp.Claims() {
			ok, detail, err := c.Check(cfg)
			status := "PASS"
			if err != nil {
				status, detail = "ERROR", err.Error()
			} else if !ok {
				status = "FAIL"
			}
			if status != "PASS" {
				failed++
			}
			fmt.Printf("%-5s %-24s %s\n      %s\n", status, c.Name, c.Text, detail)
		}
		if failed > 0 {
			fmt.Printf("\n%d claim(s) not reproduced\n", failed)
			return 1
		}
		fmt.Println("\nall claims reproduced")
		return 0
	}

	if *list {
		for _, f := range exp.Figures() {
			fmt.Printf("%-18s %s\n", f.Name, f.Title)
		}
		return 0
	}

	var exps []*exp.Experiment
	switch {
	case *all:
		exps = exp.Experiments()
	case *name != "":
		e, err := exp.Get(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fairsim: %v\n", err)
			return 1
		}
		// A scoped flag the experiment does not read would be silently
		// ignored: the run would be other than the one asked for.
		if unread := unreadFlag(e); unread != "" {
			fmt.Fprintf(os.Stderr, "fairsim: experiment %s does not read -%s\n", *name, unread)
			return 2
		}
		exps = []*exp.Experiment{e}
	default:
		fmt.Fprintln(os.Stderr, "fairsim: need -exp NAME, -all, or -list")
		flag.Usage()
		return 2
	}

	if *pprofDir != "" {
		stop, err := startProfiles(*pprofDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fairsim: pprof: %v\n", err)
			return 1
		}
		defer stop()
	}

	// An experiment's simulations run once; every figure read off them is
	// printed and written (each manifest carrying the run's RunStats), then
	// the run's wall time and RunStats, once.
	for _, e := range exps {
		start := time.Now()
		results, stats, err := e.RunWithStats(cfg)
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fairsim: %s: %v\n", e.Figures[0].Name, err)
			return 1
		}
		for _, res := range results {
			fmt.Print(res.Summary())
			if *out != "" {
				if err := writeCSV(*out, res); err != nil {
					fmt.Fprintf(os.Stderr, "fairsim: %v\n", err)
					return 1
				}
			}
			if *manifest {
				m := exp.BuildManifest(res.Name, cfg, res, stats, start, wall)
				path, err := exp.WriteManifest(*out, m)
				if err != nil {
					fmt.Fprintf(os.Stderr, "fairsim: manifest: %v\n", err)
					return 1
				}
				fmt.Printf("  wrote %s\n", path)
			}
		}
		fmt.Printf("(%s elapsed)\n", wall.Round(time.Millisecond))
		if stats.Runs > 0 {
			fmt.Printf("  runstats: %s\n", stats)
		}
	}
	return 0
}

// zeroIsPreset names the dc and incast flags whose zero value selects the
// experiment's preset rather than meaning zero (-oversub 0 does mean the
// 1:1 fabric).
var zeroIsPreset = map[string]bool{
	"pods": true, "tors": true, "hosts": true, "ms": true, "load": true,
	"senders": true, "size": true, "group": true, "every": true,
}

// scoped names the flags that only some experiments read, by the Config
// parameters each sets.
var scoped = map[string]exp.Params{
	"buffer-bytes": exp.LossyParams, "drop-data": exp.LossyParams, "drop-ack": exp.LossyParams,
	"rtt-slow-delay": exp.RTTParams, "rtt-senders": exp.RTTParams,
	"workload": exp.DCParams, "protocol": exp.DCParams, "pods": exp.DCParams, "tors": exp.DCParams,
	"hosts": exp.DCParams, "oversub": exp.DCParams, "ms": exp.DCParams, "load": exp.DCParams,
	"algo": exp.IncastParams, "senders": exp.IncastParams, "size": exp.IncastParams,
	"group": exp.IncastParams, "every": exp.IncastParams,
}

// unreadFlag returns the first scoped flag set on the command line that e
// does not read, or "".
func unreadFlag(e *exp.Experiment) (name string) {
	flag.Visit(func(f *flag.Flag) {
		if p, ok := scoped[f.Name]; ok && e.Reads&p == 0 && name == "" {
			name = f.Name
		}
	})
	return name
}

// picos returns n units as a sim.Time. A value of flag -name whose
// picosecond count does not fit a sim.Time sets *err instead of wrapping
// silently into a different run.
func picos(name string, n int64, unit sim.Time, err *error) sim.Time {
	if n > math.MaxInt64/int64(unit) || n < math.MinInt64/int64(unit) {
		*err = fmt.Errorf("-%s %v is beyond the simulator's picosecond clock (at most %v)",
			name, flag.Lookup(name).Value, sim.Time(math.MaxInt64))
	}
	return sim.Time(n) * unit
}

// printProgress renders one ProgressUpdate as a stderr line. It may be
// called concurrently by parallel variant runs; each call is a single
// Fprintf, so lines never interleave mid-line.
func printProgress(u exp.ProgressUpdate) {
	state := "running"
	if u.Done {
		state = "done"
	}
	fmt.Fprintf(os.Stderr, "progress %-24s sim %-10v wall %-8s %8.2fM ev/s  %d events (%s)\n",
		u.Label, u.SimTime, u.Wall.Round(10*time.Millisecond),
		u.EventsPerSec/1e6, u.Events, state)
}

// startProfiles begins CPU profiling into dir/cpu.pprof and returns a stop
// function that ends it and writes dir/heap.pprof.
func startProfiles(dir string) (func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		cpu.Close()
		heap, err := os.Create(filepath.Join(dir, "heap.pprof"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "fairsim: pprof: %v\n", err)
			return
		}
		runtime.GC() // up-to-date allocation stats in the heap profile
		if err := pprof.Lookup("heap").WriteTo(heap, 0); err != nil {
			fmt.Fprintf(os.Stderr, "fairsim: pprof: %v\n", err)
		}
		heap.Close()
		fmt.Fprintf(os.Stderr, "wrote %s and %s\n",
			filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "heap.pprof"))
	}, nil
}

func writeCSV(dir string, res *exp.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, res.Name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.WriteCSV(f); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return f.Close()
}
