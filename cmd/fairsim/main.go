// Command fairsim runs the paper-reproduction experiments by name and
// writes their data series as CSV and their notes beside them.
//
// Usage:
//
//	fairsim -list
//	fairsim -exp fig1a [-scale small|medium|large|full] [-seed 1] [-out dir]
//	fairsim -all [-scale medium] [-out results]     # all but dc, whose preset fig10 runs
//	fairsim -exp fig10 -progress -manifest [-pprof profiles]
//	fairsim -exp dc -workload mix -protocol swift -pods 2 -tors 2 -hosts 8 -ms 2
//	fairsim -exp incast -algo hpcc-vaisf -senders 96 -size 1048576 -out series
//	fairsim -verify [-scale small] [-progress]
//
// The dc and incast experiments' flags resize or retarget their runs;
// every other experiment runs its preset, and fairsim exits 2 on a flag
// the chosen mode (-list, -exp, -all or -verify) does not read, or on one
// given at its default value, which would select the preset.
//
// Each name is one figure of "Fast Convergence to Fairness for Reduced
// Long Flow Tail Latency in Datacenter Networks" (Snyder & Lebeck, IPDPS
// 2022). Figures that plot the same simulations are views of one run:
// -exp with any of them executes the run once and prints and writes all
// of them (-exp fig10 yields fig10 and fig12); -verify executes each run
// that carries claims once and checks them all. See DESIGN.md.
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
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"faircc/internal/exp"
	"faircc/internal/sim"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		list   = flag.Bool("list", false, "list experiment names and exit")
		name   = flag.String("exp", "", "experiment to run (e.g. fig1a)")
		all    = flag.Bool("all", false, "run every registered experiment but dc, whose preset fig10 runs")
		scale  = flag.String("scale", "medium", "datacenter experiment scale: small, medium, large, or full")
		seed   = flag.Int64("seed", 1, "simulation seed")
		out    = flag.String("out", "", "directory for CSV and notes output (default: stdout summary only)")
		work   = flag.Int("workers", 0, "parallel variant runners (0 = GOMAXPROCS)")
		verify = flag.Bool("verify", false, "check the paper's claims, each run that carries them once, and exit")

		workload = flag.String("workload", "", "dc: hadoop, websearch, storage, mix, or a flow-size distribution file in the HPCC-artifact format (default hadoop)")
		protocol = flag.String("protocol", "", "dc: hpcc or swift, run with and without VAI SF (default hpcc)")
		pods     = flag.Int("pods", 0, "dc: fat-tree pods (default: the -scale preset)")
		tors     = flag.Int("tors", 0, "dc: ToR (and Agg) switches per pod (default: the -scale preset)")
		hosts    = flag.Int("hosts", 0, "dc: hosts per ToR (default: the -scale preset)")
		ms       = flag.Int("ms", 0, "dc: traffic duration in milliseconds (default: the -scale preset)")
		load     = flag.Float64("load", 0, "dc: offered load as a fraction of host line rate (default: the paper's 0.5)")

		algo    = flag.String("algo", "", "incast: hpcc, hpcc-1g, hpcc-prob, hpcc-vaisf, swift, swift-1g, swift-prob, swift-vaisf, timely or timely-vaisf (default hpcc)")
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
	// Validate rejects. In Config a zero parameter means "the preset", and
	// every scoped flag's default is that zero, so a scoped flag given at
	// its default would silently run something other than what was asked
	// for: that is rejected here, where "given" is known.
	var err error
	cfg := exp.Config{
		Seed: *seed, Workers: *work, Scale: *scale,

		DCWorkload: *workload, DCProtocol: *protocol,
		DCPods: *pods, DCToRs: *tors, DCHostsPerToR: *hosts,
		DCDuration: picos("ms", int64(*ms), sim.Millisecond, &err), DCLoad: *load,

		IncastAlgo: *algo, IncastSenders: *senders, IncastFlowBytes: *size,
		IncastGroup: *group, IncastEvery: picos("every", int64(*everyUs), sim.Microsecond, &err),
	}
	if err == nil {
		err = cfg.Validate()
	}
	flag.Visit(func(f *flag.Flag) {
		if _, ok := scoped[f.Name]; ok && f.Value.String() == f.DefValue {
			err = fmt.Errorf("-%s=%s would select the preset; omit the flag or give another value", f.Name, f.Value)
		}
		// Progress lines are printed only under -progress, and a
		// non-positive interval would run with the default one.
		if f.Name == "progress-every" && (!*progress || *every <= 0) {
			err = fmt.Errorf("-progress-every %v needs -progress and a positive interval", *every)
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

	// One mode runs: -exp one experiment, -all every one but dc, -verify
	// each that carries claims, -list none. A flag it does not read, another
	// mode's among them, would be silently ignored.
	var exps []*exp.Experiment
	mode, what := "list", "-list"
	switch {
	case *list:
	case *name != "":
		e, err := exp.Get(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fairsim: %v\n", err)
			return 1
		}
		mode, what, exps = "exp", "experiment "+*name, []*exp.Experiment{e}
	case *all: // all but dc, whose preset is fig10's HPCC pair: fig10 runs it
		dc, _ := exp.Get("dc")
		mode, what, exps = "all", "-all", slices.DeleteFunc(exp.Experiments(), func(e *exp.Experiment) bool { return e == dc })
	case *verify:
		mode, what = "verify", "-verify"
		exps = slices.DeleteFunc(exp.Experiments(), func(e *exp.Experiment) bool { return len(e.Claims) == 0 })
	default:
		fmt.Fprintln(os.Stderr, "fairsim: need -exp NAME, -all, -verify or -list")
		flag.Usage()
		return 2
	}
	if unread := unreadFlag(mode, exps); unread != "" {
		fmt.Fprintf(os.Stderr, "fairsim: %s does not read -%s\n", what, unread)
		return 2
	}

	if *list {
		for _, f := range exp.Figures() {
			fmt.Printf("%-18s %s\n", f.Name, f.Title)
		}
		return 0
	}

	// Each experiment with claims runs once; every claim on it is checked
	// against that one run.
	if *verify {
		failed := 0
		for _, e := range exps {
			verdicts, err := e.Verify(cfg)
			for i, c := range e.Claims {
				status, detail := "ERROR", fmt.Sprint(err)
				if err == nil {
					status, detail = "FAIL", verdicts[i].Detail
					if verdicts[i].OK {
						status = "PASS"
					}
				}
				if status != "PASS" {
					failed++
				}
				fmt.Printf("%-5s %-24s %s\n      %s\n", status, c.Name, c.Text, detail)
			}
		}
		if failed > 0 {
			fmt.Printf("\n%d claim(s) not reproduced\n", failed)
			return 1
		}
		fmt.Println("\nall claims reproduced")
		return 0
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
				if err := writeResult(*out, res); err != nil {
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

// scoped maps each flag that only one experiment reads to that
// experiment. Each one defaults to the zero that selects the experiment's
// preset.
var scoped = map[string]string{
	"workload": "dc", "protocol": "dc", "pods": "dc", "tors": "dc", "hosts": "dc", "ms": "dc", "load": "dc",
	"algo": "incast", "senders": "incast", "size": "incast", "group": "incast", "every": "incast",
}

// unreadFlag returns the first flag set on the command line that mode
// (list, exp, all or verify) does not read, or "": another mode's flag, any
// flag beside -list, an output flag beside -verify, or a scoped flag whose
// experiment is not among exps, the experiments the mode runs.
func unreadFlag(mode string, exps []*exp.Experiment) (unread string) {
	flag.Visit(func(f *flag.Flag) {
		reader, isScoped := scoped[f.Name]
		e, _ := exp.Get(reader) // nil unless the flag is scoped
		switch {
		case unread != "":
		case f.Name != mode && (f.Name == "list" || f.Name == "exp" || f.Name == "all" || f.Name == "verify"),
			mode == "list" && f.Name != "list",
			mode == "verify" && (f.Name == "out" || f.Name == "manifest" || f.Name == "pprof"),
			isScoped && !slices.Contains(exps, e):
			unread = f.Name
		}
	})
	return unread
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

// writeResult writes dir/<name>.csv, the result's series, and beside it
// dir/<name>.notes, its notes.
func writeResult(dir string, res *exp.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, res.Name+".csv"), res.WriteCSV); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, res.Name+".notes"), res.WriteNotes)
}

// writeFile creates path, fills it with write and reports it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return f.Close()
}
