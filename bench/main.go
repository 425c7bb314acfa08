// Command bench is the repository's benchmark: four closed, deterministic
// workloads over the simulator's public layers, measured in host time,
// memory and allocation, with a per-layer ledger taken from outside the
// program. BENCHMARK.json at the repository root names its workloads and
// metrics; README.md in this directory explains them.
//
//	go run ./bench                                # every workload: 5 untraced reps + 1 traced, round-robin
//	go run ./bench -workload incast96 -seed 2 -reps 3
//	go run ./bench -compare A.json B.json         # judge two result files by BENCHMARK.json's bounds
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//
// The last form is the acceptance driver's: it measures one workload for
// at least S seconds of run time and prints one JSON object as the last
// line of standard output - the end-to-end metrics with --trace 0, the
// per-layer metrics of a traced run with --trace 1.
//
// Every rep runs in a child process of its own, strictly one at a time,
// so each starts from a cold heap and its peak RSS is its own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all)")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		reps    = flag.Int("reps", 5, "untraced reps per workload")
		out     = flag.String("out", "bench/out/results.json", "where to write the results file; traced runs leave their trace and CPU profile beside it")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		seconds = flag.Float64("seconds", 0, "driver mode: repeat the workload until this much run time is measured, print one JSON result line")
		trace   = flag.Int("trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		child   = flag.Bool("child", false, "internal: run one rep in this process and print it as JSON")
	)
	flag.Parse()
	outDir := filepath.Dir(*out)

	var err error
	switch {
	case *child:
		err = childMain(*name, *seed, *trace == 1, outDir)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var worse bool
		worse, err = compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err == nil && worse {
			os.Exit(1)
		}
	case *seconds > 0:
		err = driverMain(*name, *seed, *seconds, *trace == 1, outDir)
	default:
		err = suiteMain(*name, *seed, *reps, *out, outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func childMain(name string, seed int64, traced bool, outDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, err := runRep(w, seed, traced, outDir)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn runs one rep as a child process and waits for it. The child's
// peak RSS comes from its exit status, the one end-to-end metric a
// process cannot take of itself.
func spawn(w workloadSpec, seed int64, traced bool, outDir string) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-trace", t, "-out", filepath.Join(outDir, "results.json"))
	cmd.Stderr = os.Stderr
	data, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s rep: %w", w.name, err)
	}
	res := &repResult{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s rep: %w", w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return res, nil
}

// selected returns the workloads a run covers.
func selected(name string) ([]workloadSpec, error) {
	if name == "" {
		return workloads, nil
	}
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	return []workloadSpec{w}, nil
}

// suiteMain is `go run ./bench`: reps untraced reps of every selected
// workload, round-robin so each workload samples the whole time window,
// then one traced rep each; prints every metric and writes the results
// file.
func suiteMain(name string, seed int64, reps int, out, outDir string) error {
	ws, err := selected(name)
	if err != nil {
		return err
	}
	if reps < 1 {
		return fmt.Errorf("-reps must be at least 1")
	}
	results := make([]*workloadResult, len(ws))
	for i, w := range ws {
		results[i] = &workloadResult{Name: w.name, spec: w}
	}
	for rep := 0; rep < reps; rep++ {
		for _, r := range results {
			fmt.Fprintf(os.Stderr, "bench: %s rep %d/%d\n", r.Name, rep+1, reps)
			res, err := spawn(r.spec, seed, false, outDir)
			if err != nil {
				return err
			}
			r.Reps = append(r.Reps, res)
		}
	}
	for _, r := range results {
		fmt.Fprintf(os.Stderr, "bench: %s traced\n", r.Name)
		if r.Traced, err = spawn(r.spec, seed, true, outDir); err != nil {
			return err
		}
	}
	if err := finishAll(results, seed, outDir); err != nil {
		return err
	}
	if err := writeJSON(out, resultsFile{Meta: newMeta(seed, reps), Workloads: results}); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s\n", out)
	failed := 0
	for _, r := range results {
		failed += r.Failed
	}
	if failed != 0 {
		return fmt.Errorf("%d flows failed", failed)
	}
	return nil
}

// driverMain is the acceptance driver's entry: one workload, untraced
// reps until at least seconds of run time are measured (trace 0), or one
// untraced and one traced rep (trace 1), then the result line.
func driverMain(name string, seed int64, seconds float64, traced bool, outDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	r := &workloadResult{Name: w.name, spec: w}
	minReps := w.minReps
	if traced {
		minReps, seconds = 1, 0 // one untraced rep, for the metrics that are untraced medians
	}
	const maxReps = 16
	for measured := 0.0; len(r.Reps) < minReps || (measured < seconds && len(r.Reps) < maxReps); {
		res, err := spawn(w, seed, false, outDir)
		if err != nil {
			return err
		}
		r.Reps = append(r.Reps, res)
		measured += res.Metrics["wall_s"]
	}
	if traced {
		if r.Traced, err = spawn(w, seed, true, outDir); err != nil {
			return err
		}
	}
	if err := finishAll([]*workloadResult{r}, seed, outDir); err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0, r.Flows, r.Failed, map[string]metricValue{}}
	for _, d := range defs {
		v := r.PerLayer[d.Name]
		if !traced {
			v = r.EndToEnd[d.Name].Median
		}
		line.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if r.Failed != 0 {
		return fmt.Errorf("%s: %d of %d flows failed", r.Name, r.Failed, r.Flows)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finishAll completes and prints a set of workload results.
func finishAll(results []*workloadResult, seed int64, outDir string) error {
	byName := map[string]*workloadResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	for _, r := range results {
		// sim.parallel.speedup needs the sequential twin's run time: from
		// this set when it ran, from one extra rep otherwise.
		if r.spec.twin != "" && r.Traced != nil {
			t, ok := byName[r.spec.twin]
			if !ok {
				twin, err := findWorkload(r.spec.twin)
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "bench: %s for %s's speedup\n", twin.name, r.Name)
				res, err := spawn(twin, seed, false, outDir)
				if err != nil {
					return err
				}
				t = &workloadResult{Reps: []*repResult{res}}
			}
			r.twinWallS = median(t.samples("wall_s"))
		}
		r.finish()
		r.print(os.Stdout, seed)
	}
	return nil
}

// meta records where a results file came from.
type meta struct {
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Seed        int64  `json:"seed"`
	Reps        int    `json:"reps"`
	GitDescribe string `json:"git_describe,omitempty"` // absent outside a git checkout
}

func newMeta(seed int64, reps int) meta {
	m := meta{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Reps: reps}
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		m.GitDescribe = strings.TrimSpace(string(out))
	}
	return m
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
